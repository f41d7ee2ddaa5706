#pragma once
// Contracting Within a Neighborhood (CWN), Section 2.1 of the paper.
//
// Every new subgoal is immediately contracted out: the source PE sends it
// to its least-loaded neighbor. Each PE on the path forwards it to *its*
// least-loaded neighbor — the goal "travels along the steepest load
// gradient to a local minimum" — until either
//   (a) it has travelled `radius` hops (it must stop), or
//   (b) the holding PE's own load is below its least-loaded neighbor's and
//       the goal has already travelled at least `horizon` hops.
// Once kept, a goal never moves again.
//
// Load information about neighbors comes from a periodic short broadcast
// plus piggy-backing on regular messages (MachineConfig::piggyback_load).

#include "lb/load_info.hpp"
#include "lb/strategy.hpp"
#include "sim/time.hpp"
#include "util/spec.hpp"

namespace oracle::lb {

struct CwnParams {
  std::uint32_t radius = 9;   // max hops a goal message may travel
  std::uint32_t horizon = 2;  // min hops before a load-based keep
  /// Period of the neighbor-load broadcast; 0 disables it (piggy-backing
  /// alone then carries load information). Matches the GM interval so both
  /// schemes refresh neighborhood information at the same cadence.
  sim::Duration broadcast_interval = 20;

  /// Keep a goal when the local load *equals* the least neighbor estimate
  /// (a plateau is also a local minimum of the load gradient). With the
  /// strict reading ("own load is less than its least loaded neighbors")
  /// goals almost never stop before the radius early in a run, when every
  /// estimate is still 0; the paper's Table 3 distribution (half of all
  /// goals keep at the first eligible hop, average ~3.15) matches the
  /// plateau reading, so it is the default. bench_ablation_cwn_params
  /// sweeps both.
  bool tie_keep = true;

  /// PE time charged per load broadcast when the machine has no
  /// communication co-processor (MachineConfig::lb_coprocessor == false).
  sim::Duration broadcast_cpu_cost = 2;
};

/// The "cwn:" keys; names read "cwn(r=9,h=2)" plus every other key that
/// differs from its default.
inline constexpr util::SpecKey<CwnParams> kCwnKeys[] = {
    {.key = "radius", .field = &CwnParams::radius, .min = 1, .label = "r"},
    {.key = "horizon", .field = &CwnParams::horizon, .label = "h"},
    {.key = "interval", .field = &CwnParams::broadcast_interval, .min = 0},
    {.key = "tiekeep", .field = &CwnParams::tie_keep},
    {.key = "bcost", .field = &CwnParams::broadcast_cpu_cost, .min = 0},
};
inline constexpr util::Spec<CwnParams> kCwnSpec{"cwn", kCwnKeys};

class Cwn : public Strategy {
 public:
  explicit Cwn(const CwnParams& params);

  std::string name() const override;
  void attach(machine::Machine& m) override;
  void on_start() override;
  void on_goal_created(topo::NodeId pe, machine::Message msg) override;
  void on_goal_arrived(topo::NodeId pe, machine::Message msg) override;
  void on_control(topo::NodeId pe, const machine::Message& msg) override;
  void on_neighbor_load(topo::NodeId pe, topo::NodeId from,
                        std::int64_t load) override;

  const CwnParams& params() const noexcept { return params_; }

 protected:
  NeighborLoadTable& table() noexcept { return table_; }
  void schedule_broadcast(topo::NodeId pe);

 private:
  CwnParams params_;
  NeighborLoadTable table_;
};

}  // namespace oracle::lb
