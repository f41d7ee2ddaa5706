#include "machine/pe.hpp"

#include "machine/machine.hpp"
#include "util/error.hpp"

namespace oracle::machine {

PE::PE(Machine& machine, topo::NodeId id)
    : machine_(machine), sched_(&machine.scheduler_for(id)), id_(id) {
  // Per-PE container reserves scale down on huge machines: 64-slot reserves
  // are free at 10^3 PEs but cost gigabytes at 10^6, where per-PE queues
  // stay short anyway (the workload fans out across the machine).
  const bool huge = machine.num_pes() > kHugeMachinePEs;
  ready_.reserve(huge ? 4 : 64);
  waiting_.reserve(huge ? 4 : 64);
}

void PE::enqueue_goal(const Message& msg) {
  ORACLE_ASSERT(msg.kind == MsgKind::Goal);
  Activation act;
  act.id = msg.goal_id;
  act.spec = msg.spec;
  act.hops = msg.hops;
  act.parent_id = msg.parent_id;
  act.parent_pe = msg.parent_pe;
  act.is_combine = false;
  ready_.push_back(act);
  ++machine_.hot_.queue_len[id_];
  try_dispatch();
}

std::int64_t PE::load() const noexcept { return machine_.load_of(id_); }

bool PE::executing() const noexcept {
  return machine_.hot_.executing[id_] != 0;
}

std::uint64_t PE::goals_executed() const noexcept {
  return machine_.hot_.goals_executed[id_];
}

std::optional<Message> PE::take_transferable_goal(bool newest) {
  // Only fresh goals can move; combine activations belong to goals that
  // already spawned children here ("it is prohibitively expensive to move a
  // task from a PE to another after it has spawned sub-tasks").
  auto take = [&](std::size_t i) {
    const Activation& act = ready_[i];
    Message msg = Message::goal(act.id, act.spec, act.parent_id, act.parent_pe);
    msg.hops = act.hops;
    ready_.erase_at(i);
    --machine_.hot_.queue_len[id_];
    return msg;
  };
  if (newest) {
    for (std::size_t i = ready_.size(); i-- > 0;)
      if (!ready_[i].is_combine) return take(i);
  } else {
    for (std::size_t i = 0; i < ready_.size(); ++i)
      if (!ready_[i].is_combine) return take(i);
  }
  return std::nullopt;
}

sim::Duration PE::busy_time_through(sim::SimTime now) const noexcept {
  return machine_.hot_.busy_through(id_, now);
}

void PE::try_dispatch() {
  HotState& hot = machine_.hot_;
  if (hot.executing[id_] || ready_.empty()) return;
  current_ = ready_.pop_front();
  --hot.queue_len[id_];

  sim::Duration cost;
  if (current_.is_combine) {
    cost = current_.cost;
  } else {
    // Expansion is cheap and pure; expanding at dispatch keeps queued goals
    // transferable as plain specs.
    const workload::Expansion exp = machine_.expand(current_.spec);
    cost = exp.exec_cost;
  }
  cost *= static_cast<sim::Duration>(machine_.speed_factor(id_));
  // Deferred load-balancing overhead (no co-processor): occupies the PE
  // ahead of the activation it delays.
  cost += pending_overhead_;
  pending_overhead_ = 0;
  hot.executing[id_] = 1;
  hot.exec_start[id_] = sched_->now();
  hot.exec_cost[id_] = cost;
  // The in-flight activation lives in current_, so the completion event
  // captures only `this` and stays inline in the scheduler slot.
  sched_->schedule_after(cost, [this] { finish_current(); });
}

void PE::finish_current() {
  HotState& hot = machine_.hot_;
  ORACLE_ASSERT(hot.executing[id_]);
  const Activation act = current_;
  hot.executing[id_] = 0;
  hot.busy_accum[id_] += hot.exec_cost[id_];

  if (act.is_combine) {
    respond_to_parent(act);
  } else {
    const workload::Expansion exp = machine_.expand(act.spec);
    ++hot.goals_executed[id_];
    machine_.record_goal_executed(id_, act.hops);
    if (exp.is_leaf) {
      respond_to_parent(act);
    } else {
      // Park this goal awaiting responses, then contract out the children.
      WaitingGoal waiting;
      waiting.parent_id = act.parent_id;
      waiting.parent_pe = act.parent_pe;
      waiting.remaining = static_cast<std::uint32_t>(exp.children.size());
      waiting.combine_cost = exp.combine_cost;
      waiting.spec = act.spec;
      waiting.hops = act.hops;
      ORACLE_ASSERT(waiting.remaining > 0);
      const bool inserted = waiting_.emplace(act.id, waiting).second;
      ORACLE_ASSERT_MSG(inserted, "goal executed twice");
      ++hot.waiting[id_];
      for (const workload::GoalSpec& child : exp.children) {
        Message msg =
            Message::goal(machine_.next_goal_id(id_), child, act.id, id_);
        machine_.place_new_goal(id_, std::move(msg));
      }
    }
  }

  try_dispatch();
  if (idle()) machine_.notify_idle(id_);
}

void PE::respond_to_parent(const Activation& act) {
  if (act.parent_id == workload::kInvalidGoal) {
    machine_.on_root_complete(id_);
    return;
  }
  machine_.send_response(id_, act.parent_pe, act.parent_id);
}

void PE::deliver_response(workload::GoalId parent_id) {
  const auto it = waiting_.find(parent_id);
  ORACLE_ASSERT_MSG(it != waiting_.end(), "response for unknown goal");
  ORACLE_ASSERT(it->second.remaining > 0);
  if (--it->second.remaining == 0) {
    Activation act;
    act.id = parent_id;
    act.spec = it->second.spec;
    act.hops = it->second.hops;
    act.parent_id = it->second.parent_id;
    act.parent_pe = it->second.parent_pe;
    act.is_combine = true;
    act.cost = it->second.combine_cost;
    waiting_.erase(it);
    --machine_.hot_.waiting[id_];
    ready_.push_back(act);
    ++machine_.hot_.queue_len[id_];
    try_dispatch();
  }
}

}  // namespace oracle::machine
