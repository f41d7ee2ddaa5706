#include "lb/baselines.hpp"

#include <algorithm>

#include "machine/machine.hpp"

namespace oracle::lb {

// --------------------------------------------------------------------------
// LocalOnly
// --------------------------------------------------------------------------

void LocalOnly::on_goal_created(topo::NodeId pe, machine::Message msg) {
  machine().keep_goal(pe, msg);
}

void LocalOnly::on_goal_arrived(topo::NodeId pe, machine::Message msg) {
  machine().keep_goal(pe, msg);  // unreachable in practice; keep is safe
}

// --------------------------------------------------------------------------
// RandomPush
// --------------------------------------------------------------------------

void RandomPush::on_goal_created(topo::NodeId pe, machine::Message msg) {
  const auto nbrs = machine().topology().neighbors(pe);
  if (nbrs.empty()) {
    machine().keep_goal(pe, msg);
    return;
  }
  const auto pick = nbrs[machine().rng_for(pe).below(nbrs.size())];
  msg.hops += 1;
  machine().send_goal(pe, pick, std::move(msg));
}

void RandomPush::on_goal_arrived(topo::NodeId pe, machine::Message msg) {
  machine().keep_goal(pe, msg);
}

// --------------------------------------------------------------------------
// RoundRobinPush
// --------------------------------------------------------------------------

void RoundRobinPush::attach(machine::Machine& m) {
  Strategy::attach(m);
  next_.assign(m.num_pes(), 0);
}

void RoundRobinPush::on_goal_created(topo::NodeId pe, machine::Message msg) {
  const auto nbrs = machine().topology().neighbors(pe);
  if (nbrs.empty()) {
    machine().keep_goal(pe, msg);
    return;
  }
  const auto pick = nbrs[next_[pe] % nbrs.size()];
  next_[pe] = (next_[pe] + 1) % nbrs.size();
  msg.hops += 1;
  machine().send_goal(pe, pick, std::move(msg));
}

void RoundRobinPush::on_goal_arrived(topo::NodeId pe, machine::Message msg) {
  machine().keep_goal(pe, msg);
}

// --------------------------------------------------------------------------
// WorkStealing
// --------------------------------------------------------------------------

WorkStealing::WorkStealing(const Params& params) : params_(params) {
  kStealSpec.check(params_);
}

std::string WorkStealing::name() const { return kStealSpec.name(params_); }

void WorkStealing::attach(machine::Machine& m) {
  Strategy::attach(m);
  stealing_.assign(m.num_pes(), false);
}

void WorkStealing::on_start() {
  // Every PE starts idle; arm its first steal attempt after one backoff
  // period (staggered deterministically to avoid a synchronized thundering
  // herd on the root's channels).
  for (topo::NodeId pe = 0; pe < machine().num_pes(); ++pe) {
    const sim::Duration offset =
        params_.backoff +
        static_cast<sim::Duration>(pe % static_cast<topo::NodeId>(
                                            std::max<sim::Duration>(
                                                params_.backoff, 1)));
    stealing_[pe] = true;
    machine().scheduler_for(pe).schedule_after(offset,
                                               [this, pe] { try_steal(pe); });
  }
}

void WorkStealing::on_goal_created(topo::NodeId pe, machine::Message msg) {
  machine().keep_goal(pe, msg);
}

void WorkStealing::on_goal_arrived(topo::NodeId pe, machine::Message msg) {
  stealing_[pe] = false;  // steal satisfied (or work arrived anyway)
  machine().keep_goal(pe, msg);
}

void WorkStealing::on_pe_idle(topo::NodeId pe) {
  if (!stealing_[pe]) try_steal(pe);
}

void WorkStealing::try_steal(topo::NodeId pe) {
  if (!machine().pe(pe).idle()) {  // work arrived in the meantime
    stealing_[pe] = false;
    return;
  }
  const auto nbrs = machine().topology().neighbors(pe);
  if (nbrs.empty()) {
    stealing_[pe] = false;
    return;
  }
  stealing_[pe] = true;
  const auto victim = nbrs[machine().rng_for(pe).below(nbrs.size())];
  machine().send_control(pe, victim, machine::kCtrlStealReq, 0);
}

void WorkStealing::on_control(topo::NodeId pe, const machine::Message& msg) {
  switch (msg.ctrl_tag) {
    case machine::kCtrlStealReq: {
      // We are the victim; ship one queued goal if we have enough.
      if (machine().load_of(pe) > params_.min_victim_load) {
        auto goal = machine().pe(pe).take_transferable_goal(/*newest=*/false);
        if (goal) {
          goal->hops += 1;
          machine().send_goal(pe, msg.src, std::move(*goal));
          return;
        }
      }
      machine().send_control(pe, msg.src, machine::kCtrlStealNack, 0);
      return;
    }
    case machine::kCtrlStealNack: {
      // Back off, then retry if still idle.
      machine().scheduler_for(pe).schedule_after(params_.backoff,
                                           [this, pe] { try_steal(pe); });
      return;
    }
    default:
      return;
  }
}

}  // namespace oracle::lb
