#include "lb/cwn.hpp"

#include "machine/machine.hpp"

namespace oracle::lb {

Cwn::Cwn(const CwnParams& params) : params_(params) {
  kCwnSpec.check(params_);
  ORACLE_REQUIRE(params_.horizon <= params_.radius,
                 "CWN horizon cannot exceed the radius");
}

std::string Cwn::name() const { return kCwnSpec.name(params_); }

void Cwn::attach(machine::Machine& m) {
  Strategy::attach(m);
  table_.init(m.topology());
}

void Cwn::schedule_broadcast(topo::NodeId pe) {
  machine().scheduler_for(pe).schedule_after(params_.broadcast_interval,
                                             [this, pe] {
    if (!machine().config().lb_coprocessor)
      machine().pe(pe).add_overhead(params_.broadcast_cpu_cost);
    machine().broadcast_control(pe, machine::kCtrlLoadInfo,
                                machine().load_of(pe));
    schedule_broadcast(pe);  // run() stops the scheduler at root completion
  });
}

void Cwn::on_start() {
  if (params_.broadcast_interval <= 0) return;
  for (topo::NodeId pe = 0; pe < machine().num_pes(); ++pe)
    schedule_broadcast(pe);
}

void Cwn::on_goal_created(topo::NodeId pe, machine::Message msg) {
  // "this scheme sends every subgoal out to another PE as soon as it is
  // created" — unconditionally, to look over the horizon.
  const topo::NodeId target = table_.least_loaded(pe, machine().rng_for(pe));
  if (target == topo::kInvalidNode) {  // isolated PE (1-node topologies)
    machine().keep_goal(pe, msg);
    return;
  }
  msg.hops += 1;
  machine().send_goal(pe, target, std::move(msg));
}

void Cwn::on_goal_arrived(topo::NodeId pe, machine::Message msg) {
  if (msg.hops >= params_.radius) {
    machine().keep_goal(pe, msg);  // radius exhausted: must keep
    return;
  }
  const std::int64_t own = machine().load_of(pe);
  const std::int64_t least = table_.min_load(pe);
  if (msg.hops >= params_.horizon &&
      (own < least || (params_.tie_keep && own == least))) {
    machine().keep_goal(pe, msg);  // local minimum of the load gradient
    return;
  }
  const topo::NodeId target = table_.least_loaded(pe, machine().rng_for(pe));
  ORACLE_ASSERT(target != topo::kInvalidNode);
  msg.hops += 1;
  machine().send_goal(pe, target, std::move(msg));
}

void Cwn::on_control(topo::NodeId pe, const machine::Message& msg) {
  if (msg.ctrl_tag == machine::kCtrlLoadInfo)
    table_.update(pe, msg.src, msg.ctrl_value);
}

void Cwn::on_neighbor_load(topo::NodeId pe, topo::NodeId from,
                           std::int64_t load) {
  table_.update(pe, from, load);
}

}  // namespace oracle::lb
