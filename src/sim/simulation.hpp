#pragma once
// Simulation: a Scheduler plus run-scoped periodic samplers. One
// Simulation == one ORACLE run (or one shard of a parallel run).

#include <vector>

#include "sim/scheduler.hpp"
#include "sim/time.hpp"
#include "util/inline_function.hpp"

namespace oracle::sim {

class Simulation {
 public:
  Simulation() = default;
  /// Size the scheduler's timing wheel explicitly (normalized to a power
  /// of two); Machine autotunes this from the config's latency scale.
  explicit Simulation(std::uint32_t ring_ticks) : sched_(ring_ticks) {}
  Simulation(const Simulation&) = delete;
  Simulation& operator=(const Simulation&) = delete;

  Scheduler& scheduler() noexcept { return sched_; }
  const Scheduler& scheduler() const noexcept { return sched_; }
  SimTime now() const noexcept { return sched_.now(); }

  /// Sampler hooks ride the same no-heap-fallback callable as scheduler
  /// events: sampling is part of the engine's steady state (one firing per
  /// interval for the whole run), so its callback must not reintroduce
  /// allocation. Capture indices/pointers, not payloads.
  using SamplerFn = util::InlineFunction<void(SimTime), 48>;

  /// Invoke `fn(now)` every `interval` units starting at `start`, until the
  /// event list would otherwise be empty. Sampler events never keep the
  /// simulation alive on their own: they are rescheduled only while other
  /// work is pending, mirroring ORACLE's output sampler.
  void add_sampler(Duration interval, SamplerFn fn, SimTime start = 0);

  /// Run to completion (or the event budget). Returns the final time.
  SimTime run(std::uint64_t max_events = 0) {
    return sched_.run(kTimeInfinity, max_events);
  }

 private:
  struct Sampler {
    Duration interval;
    SamplerFn fn;
  };

  void arm_sampler(std::size_t idx, SimTime when);

  Scheduler sched_;
  std::vector<Sampler> samplers_;
};

}  // namespace oracle::sim
