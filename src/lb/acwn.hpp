#pragma once
// Adaptive CWN (ACWN) — the paper's Section 5 future-work directions,
// implemented as an extension so they can be evaluated:
//
//  1. *Saturation control*: "When the system is running at 100% utilization,
//     there is no need to send every goal out to other PEs. Detecting such a
//     situation and then keeping goals locally until the situation changes
//     would be worth investigating." A new goal is kept at its source when
//     both the local load and the least neighbor load are at or above
//     `saturation` (everyone has plenty of work).
//
//  2. *Bounded redistribution*: "a small, well-controlled (i.e. responsive
//     to runtime conditions) re-distribution component should be added to
//     CWN." When a PE learns a neighbor's load is lower than its own by at
//     least `redistribute_delta` and it has queued work, it re-sends one
//     queued (not yet started) goal toward that neighbor, at most
//     `max_moves` extra moves per goal (tracked via the hop budget).
//
// With saturation = 0 and redistribute_delta = 0, ACWN degenerates to CWN.

#include "lb/cwn.hpp"

namespace oracle::lb {

/// The base CWN parameters plus ACWN's own.
struct AcwnParams : CwnParams {
  std::int64_t saturation = 3;        // 0 disables saturation control
  std::int64_t redistribute_delta = 4;  // 0 disables redistribution
  sim::Duration redistribute_cooldown = 10;  // min time between moves per PE
};

/// The "acwn:" keys; names read "acwn(r=9,h=2,sat=3,rd=4)" plus every
/// other key that differs from its default.
inline constexpr util::SpecKey<AcwnParams> kAcwnKeys[] = {
    {.key = "radius", .field = &AcwnParams::radius, .min = 1, .label = "r"},
    {.key = "horizon", .field = &AcwnParams::horizon, .label = "h"},
    {.key = "interval", .field = &AcwnParams::broadcast_interval, .min = 0},
    {.key = "tiekeep", .field = &AcwnParams::tie_keep},
    {.key = "saturation", .field = &AcwnParams::saturation, .min = 0,
     .label = "sat"},
    {.key = "redistribute", .field = &AcwnParams::redistribute_delta, .min = 0,
     .label = "rd"},
    {.key = "cooldown", .field = &AcwnParams::redistribute_cooldown, .min = 0},
};
inline constexpr util::Spec<AcwnParams> kAcwnSpec{"acwn", kAcwnKeys};

class Acwn : public Cwn {
 public:
  explicit Acwn(const AcwnParams& params);

  std::string name() const override;
  void attach(machine::Machine& m) override;
  void on_goal_created(topo::NodeId pe, machine::Message msg) override;
  void on_neighbor_load(topo::NodeId pe, topo::NodeId from,
                        std::int64_t load) override;
  void on_control(topo::NodeId pe, const machine::Message& msg) override;

  const AcwnParams& acwn_params() const noexcept { return params_; }

 private:
  void maybe_redistribute(topo::NodeId pe, topo::NodeId toward,
                          std::int64_t neighbor_load);

  AcwnParams params_;
  std::vector<sim::SimTime> last_move_;  // per-PE redistribution cooldown
};

}  // namespace oracle::lb
