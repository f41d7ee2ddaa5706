#pragma once
// One-call façade over the batch engine: configs in, results out, with
// optional JSONL/CSV stores and resume from them. This is what
// core::run_batch / SweepBuilder::run_batch and the oracle_batch CLI sit
// on; use the JobQueue/Executor/ResultSink pieces directly for custom
// pipelines (extra sinks, pre-filtered queues, ...).

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "core/config.hpp"
#include "exp/executor.hpp"
#include "exp/job_queue.hpp"

namespace oracle::exp {

struct BatchOptions {
  ExecutorOptions exec;

  /// Primary result store ("" = none). It is the only durable record of a
  /// completed job: each commit group is fsynced before it counts.
  std::string jsonl_path;

  /// Secondary CSV mirror ("" = none). A CSV-only sweep resumes from it.
  std::string csv_path;

  /// Resume: scan the existing JSONL/CSV stores, skip jobs whose content
  /// hash they already hold, and append the rest. When false, existing
  /// stores are truncated.
  bool resume = false;

  /// When nonzero, re-seed each job with Rng::derive_seed(master_seed, i)
  /// — independent reproducible streams without enumerating seeds by hand.
  std::uint64_t master_seed = 0;

  /// Also collect results in memory and return them (in job order;
  /// resumed-over jobs are absent). Disable for huge disk-only sweeps.
  bool collect = true;

  /// Test/piping hook: additionally stream JSONL records here.
  std::ostream* jsonl_stream = nullptr;
};

struct BatchOutcome {
  BatchReport report;
  std::vector<stats::RunResult> results;  ///< only when collect = true
};

/// Execute every config as one batch: build the JobQueue, apply
/// master_seed and (with resume) the store scan that skips completed
/// jobs, then run the queue overload below.
/// Throws SimulationError on store I/O failure; individual simulation
/// failures land in outcome.report instead.
BatchOutcome run_batch(const std::vector<core::ExperimentConfig>& configs,
                       const BatchOptions& options = {});

/// Execute exactly the jobs left in `queue`, which the caller has already
/// sliced and filtered (the service copies a job-index window with
/// JobQueue::slice and drops the jobs its StoreIndex holds). Uses
/// the sink, executor and collect options; `resume` only opens the stores
/// in append mode — nothing is scanned. master_seed is the caller's
/// business here. The report's total_jobs is the queue size and skipped
/// is 0.
BatchOutcome run_batch(JobQueue& queue, const BatchOptions& options);

}  // namespace oracle::exp
