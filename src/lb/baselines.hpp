#pragma once
// Baseline strategies. None of these appear in the paper's evaluation, but
// they anchor the comparison: LocalOnly shows what *no* distribution does,
// RandomPush / RoundRobinPush show what distribution without load
// information does, and WorkStealing is the classic receiver-initiated
// alternative to the two sender/queue-driven schemes under study.

#include "lb/strategy.hpp"
#include "sim/time.hpp"
#include "util/spec.hpp"

#include <vector>

namespace oracle::lb {

/// Keep every goal where it was created. Utilization collapses to ~1/P.
class LocalOnly : public Strategy {
 public:
  std::string name() const override { return "local"; }
  void on_goal_created(topo::NodeId pe, machine::Message msg) override;
  void on_goal_arrived(topo::NodeId pe, machine::Message msg) override;
};

/// Send every new goal to a uniformly random neighbor, which keeps it.
class RandomPush : public Strategy {
 public:
  std::string name() const override { return "random"; }
  void on_goal_created(topo::NodeId pe, machine::Message msg) override;
  void on_goal_arrived(topo::NodeId pe, machine::Message msg) override;
};

/// Send every new goal to the next neighbor in cyclic order.
class RoundRobinPush : public Strategy {
 public:
  std::string name() const override { return "roundrobin"; }
  void attach(machine::Machine& m) override;
  void on_goal_created(topo::NodeId pe, machine::Message msg) override;
  void on_goal_arrived(topo::NodeId pe, machine::Message msg) override;

 private:
  std::vector<std::size_t> next_;  // per-PE cursor into the neighbor list
};

/// Receiver-initiated work stealing: goals stay local; an idle PE asks a
/// random neighbor for work, retrying after `backoff` on refusal.
class WorkStealing : public Strategy {
 public:
  struct Params {
    sim::Duration backoff = 10;   // delay between steal attempts while idle
    std::int64_t min_victim_load = 1;  // victim must have > this much queued
  };

  explicit WorkStealing(const Params& params);

  std::string name() const override;
  void attach(machine::Machine& m) override;
  void on_start() override;
  void on_goal_created(topo::NodeId pe, machine::Message msg) override;
  void on_goal_arrived(topo::NodeId pe, machine::Message msg) override;
  void on_control(topo::NodeId pe, const machine::Message& msg) override;
  void on_pe_idle(topo::NodeId pe) override;

 private:
  void try_steal(topo::NodeId pe);

  Params params_;
  std::vector<bool> stealing_;  // a request or backoff timer is outstanding
};

/// The "steal:" keys; names read "steal(b=10)" plus every other key that
/// differs from its default.
inline constexpr util::SpecKey<WorkStealing::Params> kStealKeys[] = {
    {.key = "backoff", .field = &WorkStealing::Params::backoff, .min = 1,
     .label = "b"},
    {.key = "minvictim", .field = &WorkStealing::Params::min_victim_load,
     .min = 0},
};
inline constexpr util::Spec<WorkStealing::Params> kStealSpec{"steal",
                                                             kStealKeys};

}  // namespace oracle::lb
