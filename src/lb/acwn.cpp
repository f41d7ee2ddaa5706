#include "lb/acwn.hpp"

#include "machine/machine.hpp"

namespace oracle::lb {

Acwn::Acwn(const AcwnParams& params) : Cwn(params), params_(params) {
  kAcwnSpec.check(params_);
}

std::string Acwn::name() const { return kAcwnSpec.name(params_); }

void Acwn::attach(machine::Machine& m) {
  Cwn::attach(m);
  last_move_.assign(m.num_pes(), -1);
}

void Acwn::on_goal_created(topo::NodeId pe, machine::Message msg) {
  // Saturation control: if everyone nearby is saturated, contracting the
  // goal out only spends channel time; keep it (it can still be
  // redistributed later, unlike in plain CWN).
  if (params_.saturation > 0 && machine().load_of(pe) >= params_.saturation &&
      table().min_load(pe) >= params_.saturation) {
    machine().keep_goal(pe, msg);
    return;
  }
  Cwn::on_goal_created(pe, std::move(msg));
}

void Acwn::on_neighbor_load(topo::NodeId pe, topo::NodeId from,
                            std::int64_t load) {
  Cwn::on_neighbor_load(pe, from, load);
  maybe_redistribute(pe, from, load);
}

void Acwn::on_control(topo::NodeId pe, const machine::Message& msg) {
  Cwn::on_control(pe, msg);
  if (msg.ctrl_tag == machine::kCtrlLoadInfo &&
      msg.src != topo::kInvalidNode &&
      machine().topology().are_neighbors(pe, msg.src)) {
    maybe_redistribute(pe, msg.src, msg.ctrl_value);
  }
}

void Acwn::maybe_redistribute(topo::NodeId pe, topo::NodeId toward,
                              std::int64_t neighbor_load) {
  if (params_.redistribute_delta <= 0) return;
  if (machine().load_of(pe) - neighbor_load < params_.redistribute_delta)
    return;
  const sim::SimTime now = machine().now_of(pe);
  if (last_move_[pe] >= 0 &&
      now - last_move_[pe] < params_.redistribute_cooldown)
    return;
  // Move one queued goal toward the underloaded neighbor. The hop budget
  // still applies: a goal that exhausted its radius stays put for good.
  auto goal = machine().pe(pe).take_transferable_goal(/*newest=*/true);
  if (!goal) return;
  if (goal->hops >= params_.radius) {
    machine().keep_goal(pe, *goal);  // out of budget; put it back
    return;
  }
  last_move_[pe] = now;
  goal->hops += 1;
  machine().send_goal(pe, toward, std::move(*goal));
}

}  // namespace oracle::lb
