#pragma once
// The Gradient Model (GM) of Lin & Keller, as described in Section 2.2.
//
// New subgoals always enter the local queue. A separate, asynchronous
// gradient process per PE wakes every `interval` units and:
//   1. computes the PE's load and state: idle (load < low-water-mark),
//      abundant (load > high-water-mark), else neutral;
//   2. computes its proximity: 0 if idle, else 1 + min neighbor proximity,
//      clamped to network diameter + 1;
//   3. broadcasts the proximity to all neighbors iff it changed;
//   4. if abundant, sends one queued goal to the neighbor with least
//      proximity.
// PEs initially assume all neighbor proximities are 0. Receiving a goal
// just enqueues it (state changes are noticed at the next wakeup).
//
// The gradient process runs on the communication co-processor (paper §3.1:
// "we assume a communication co-processor to handle the routing and
// load-balancing functions"), so wakeups cost no PE compute time.

#include "lb/load_info.hpp"
#include "lb/strategy.hpp"
#include "sim/time.hpp"
#include "util/spec.hpp"

#include <vector>

namespace oracle::lb {

struct GmParams {
  std::int64_t high_water_mark = 2;
  std::int64_t low_water_mark = 1;
  sim::Duration interval = 20;  // sleep between gradient-process cycles

  /// Stagger the first wakeup of each PE across [0, interval) so the
  /// "asynchronous" processes are not phase-locked. Deterministic.
  bool stagger = true;

  /// Only send work when the least neighbor proximity actually signals a
  /// reachable idle PE (< diameter+1). Disabling this sends one goal per
  /// cycle whenever abundant, even with no idle PE inferred (the literal
  /// reading of the paper text); see bench_ablation_gm_params.
  bool require_gradient = true;

  /// Send the newest queued goal (preserves locality of older work); when
  /// false, sends the oldest.
  bool send_newest = true;

  /// PE time charged per gradient-process cycle when the machine has no
  /// communication co-processor. Larger than CWN's broadcast cost: the
  /// gradient process "needs to execute a more complex code and more
  /// frequently" (paper §3.1).
  sim::Duration cycle_cpu_cost = 6;
};

/// The "gm:" keys; names read "gm(h=2,l=1,i=20)" plus every other key
/// that differs from its default.
inline constexpr util::SpecKey<GmParams> kGmKeys[] = {
    {.key = "hwm", .field = &GmParams::high_water_mark, .label = "h"},
    {.key = "lwm", .field = &GmParams::low_water_mark, .min = 0, .label = "l"},
    {.key = "interval", .field = &GmParams::interval, .min = 1, .label = "i"},
    {.key = "stagger", .field = &GmParams::stagger},
    {.key = "requiregradient", .field = &GmParams::require_gradient},
    {.key = "sendnewest", .field = &GmParams::send_newest},
    {.key = "ccost", .field = &GmParams::cycle_cpu_cost, .min = 0},
};
inline constexpr util::Spec<GmParams> kGmSpec{"gm", kGmKeys};

class GradientModel : public Strategy {
 public:
  explicit GradientModel(const GmParams& params);

  std::string name() const override;
  void attach(machine::Machine& m) override;
  void on_start() override;
  void on_goal_created(topo::NodeId pe, machine::Message msg) override;
  void on_goal_arrived(topo::NodeId pe, machine::Message msg) override;
  void on_control(topo::NodeId pe, const machine::Message& msg) override;

  const GmParams& params() const noexcept { return params_; }

  /// Test hooks: current proximity estimates.
  std::int64_t proximity_of(topo::NodeId pe) const { return last_broadcast_.at(pe); }

 private:
  void wakeup(topo::NodeId pe);
  std::int64_t compute_proximity(topo::NodeId pe, bool idle) const;

  GmParams params_;
  std::int64_t proximity_cap_ = 0;  // diameter + 1
  // Last proximity heard from each neighbor, in the load table's layout:
  // "least loaded" is "least proximity".
  NeighborLoadTable neighbor_prox_;
  std::vector<std::int64_t> last_broadcast_;  // last value each PE broadcast
};

}  // namespace oracle::lb
