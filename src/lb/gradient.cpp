#include "lb/gradient.hpp"

#include <algorithm>

#include "machine/machine.hpp"

namespace oracle::lb {

GradientModel::GradientModel(const GmParams& params) : params_(params) {
  kGmSpec.check(params_);
  ORACLE_REQUIRE(params_.high_water_mark >= params_.low_water_mark,
                 "GM high-water-mark must be >= low-water-mark");
}

std::string GradientModel::name() const { return kGmSpec.name(params_); }

void GradientModel::attach(machine::Machine& m) {
  Strategy::attach(m);
  proximity_cap_ = static_cast<std::int64_t>(m.diameter()) + 1;
  const auto n = m.num_pes();
  // "All the PEs initially assume that the proximities of their neighbors
  // are 0."
  neighbor_prox_.init(m.topology());
  last_broadcast_.assign(n, 0);
}

void GradientModel::on_start() {
  for (topo::NodeId pe = 0; pe < machine().num_pes(); ++pe) {
    const sim::Duration offset =
        params_.stagger
            ? static_cast<sim::Duration>(
                  (static_cast<std::uint64_t>(pe) * params_.interval) /
                  std::max<std::uint32_t>(machine().num_pes(), 1))
            : 0;
    machine().scheduler_for(pe).schedule_after(offset,
                                               [this, pe] { wakeup(pe); });
  }
}

std::int64_t GradientModel::compute_proximity(topo::NodeId pe, bool idle) const {
  if (idle) return 0;
  const std::int64_t least = neighbor_prox_.degree(pe) == 0
                                  ? proximity_cap_
                                  : neighbor_prox_.min_load(pe);
  // "the proximity is one more than the smallest proximity among the
  // immediate neighbors", clamped to diameter + 1.
  return std::min<std::int64_t>(least + 1, proximity_cap_);
}

void GradientModel::wakeup(topo::NodeId pe) {
  if (!machine().config().lb_coprocessor)
    machine().pe(pe).add_overhead(params_.cycle_cpu_cost);
  const std::int64_t load = machine().load_of(pe);
  const bool idle = load < params_.low_water_mark;
  const bool abundant = load > params_.high_water_mark;

  const std::int64_t prox = compute_proximity(pe, idle);
  if (prox != last_broadcast_[pe]) {
    last_broadcast_[pe] = prox;
    machine().broadcast_control(pe, machine::kCtrlProximity, prox);
  }

  if (abundant) {
    // Neighbor with least proximity; ties broken uniformly.
    if (neighbor_prox_.degree(pe) > 0) {
      const std::int64_t best = neighbor_prox_.min_load(pe);
      const topo::NodeId chosen =
          neighbor_prox_.least_loaded(pe, machine().rng_for(pe));
      if (!params_.require_gradient || best < proximity_cap_) {
        auto goal = machine().pe(pe).take_transferable_goal(params_.send_newest);
        if (goal) {
          goal->hops += 1;
          machine().send_goal(pe, chosen, std::move(*goal));
        }
      }
    }
  }

  machine().scheduler_for(pe).schedule_after(params_.interval,
                                       [this, pe] { wakeup(pe); });
}

void GradientModel::on_goal_created(topo::NodeId pe, machine::Message msg) {
  // "Whenever a subgoal is generated, it is simply entered in the local
  // queue."
  machine().keep_goal(pe, msg);
}

void GradientModel::on_goal_arrived(topo::NodeId pe, machine::Message msg) {
  // "Any PE that receives a goal message from its neighbor just adds it to
  // its queue."
  machine().keep_goal(pe, msg);
}

void GradientModel::on_control(topo::NodeId pe, const machine::Message& msg) {
  if (msg.ctrl_tag != machine::kCtrlProximity) return;
  neighbor_prox_.update(pe, msg.src, msg.ctrl_value);  // ignores bus overhears
}

}  // namespace oracle::lb
