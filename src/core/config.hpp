#pragma once
// ExperimentConfig: everything that defines one simulation run. This is the
// public entry point most users interact with — build a config (or parse
// spec strings), hand it to Simulator::run(), get a RunResult back.

#include <string>

#include "machine/machine_config.hpp"
#include "workload/goal.hpp"

namespace oracle::core {

struct ExperimentConfig {
  /// Topology spec, e.g. "grid:10x10", "dlm:5:10x10", "hypercube:7".
  std::string topology = "grid:10x10";

  /// Strategy spec, e.g. "cwn:radius=9,horizon=2" or "gm:hwm=2,lwm=1";
  /// the keys are the kind's table (kCwnKeys, kGmKeys, kAcwnKeys,
  /// kStealKeys in src/lb/).
  std::string strategy = "cwn";

  /// Workload spec, e.g. "fib:15", "dc:1:987", "burst:phases=4,width=6",
  /// "fib:15;leaf=50" (see workload::make_workload).
  std::string workload = "fib:15";

  /// Per-goal compute costs (applied to fib/dc/synthetic via the factory).
  workload::CostModel costs;

  /// Communication and instrumentation knobs.
  machine::MachineConfig machine;

  /// Convenience: label used in sweep reports.
  std::string label() const;
};

}  // namespace oracle::core
