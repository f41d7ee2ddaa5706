#pragma once
// Simulator: builds the topology, workload and strategy described by an
// ExperimentConfig, runs one Machine, and returns the aggregated RunResult.

#include <vector>

#include "core/config.hpp"
#include "exp/batch.hpp"
#include "stats/run_result.hpp"

namespace oracle::core {

/// Run one experiment start-to-finish. Thread-safe in the sense that
/// concurrent calls with separate configs share no mutable state.
stats::RunResult run_experiment(const ExperimentConfig& config);

/// Run a whole batch through the experiment engine (parallel execution,
/// optional JSONL/CSV stores, resume from the store). Equivalent
/// to exp::run_batch; see exp/batch.hpp for the options.
exp::BatchOutcome run_batch(const std::vector<ExperimentConfig>& configs,
                            const exp::BatchOptions& options = {});

}  // namespace oracle::core
