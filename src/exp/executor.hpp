#pragma once
// Parallel executor for batch experiments.
//
// Workers (util/parallel_for.hpp threads, one single-threaded Machine per
// job as machine.hpp prescribes) claim jobs from the JobQueue one at a time
// and run core::run_experiment on each. Finished runs pass through an
// *ordered commit* stage: one committer thread per run waits for the
// frontier job, then writes every contiguous finished result to the sink
// as one group with one flush (store fsync); with several workers it
// flushes at most once every 2 ms. Workers never write or sync.
// Two consequences:
//   1. the JSONL/CSV output of a sweep is byte-identical whatever the
//      worker count (--jobs 1 vs --jobs 8), and
//   2. an interrupted run leaves a clean job-order prefix on disk, so
//      resume only ever re-runs a suffix plus the in-flight window.

#include <cstddef>
#include <functional>
#include <iosfwd>
#include <string>
#include <vector>

#include "exp/job_queue.hpp"
#include "exp/result_sink.hpp"

namespace oracle::exp {

struct ExecutorOptions {
  /// Worker threads; 0 = hardware concurrency (capped at the job count).
  std::size_t workers = 0;

  /// Emit live jobs/s + ETA lines (to `progress_stream` or stderr).
  bool progress = false;
  std::ostream* progress_stream = nullptr;

  /// Ticker rendering: -1 = auto (carriage-return overwrite only when the
  /// ticker goes to stderr and stderr is a terminal), 0 = force plain
  /// lines, 1 = force overwrite. Overwrite mode redraws every
  /// obs::kStatusInterval; plain mode throttles to >= 10s between lines
  /// so CI logs don't fill with ticker output. Both modes end with one
  /// newline-terminated summary line.
  int progress_tty = -1;

  /// When non-empty, atomically rewrite this file with a one-line JSON
  /// obs::StatusSnapshot every obs::kStatusInterval (and a final "done" /
  /// "failed" snapshot when the run ends), independent of `progress`.
  std::string status_path;

  /// Cooperative cancellation hook: called with each job immediately
  /// before it would run; returning true skips that job and stops the run
  /// (no further jobs are claimed; in-flight jobs finish and their
  /// contiguous prefix still commits). Lease workers use it to observe a
  /// lease the service shrank mid-run: jobs at or beyond the new lease end
  /// are abandoned for the thief to pick up. The hook runs on worker
  /// threads, so it must be thread-safe. With one worker thread the hook
  /// is called only once every job ahead of it in the queue has been
  /// committed (written and flushed), so the supervisor can blame a dead
  /// worker's first uncommitted job.
  std::function<bool(const ExperimentJob&)> stop_before;
};

/// Order statistics over per-job wall-clock times. Computed from every job
/// whose simulation ran to completion this process (committed or not);
/// skipped/cached jobs contribute nothing.
struct DurationStats {
  std::size_t count = 0;
  double min_s = 0.0;
  double mean_s = 0.0;
  double max_s = 0.0;
  double p50_s = 0.0;
  double p95_s = 0.0;
  double p99_s = 0.0;

  /// Nearest-rank percentiles over the sample set (consumes/sorts it).
  static DurationStats from_samples(std::vector<double> seconds);
  /// One line, e.g. "job wall: min 1.2ms / p50 3.4ms / ... (n=120)".
  std::string summary() const;
};

struct BatchReport {
  /// Failure messages kept in `errors`; the rest are only counted.
  static constexpr std::size_t kMaxErrors = 8;

  std::size_t total_jobs = 0;  ///< sweep size before resume skipping
  std::size_t skipped = 0;     ///< already in the store (resume) or dropped
  std::size_t executed = 0;    ///< simulations actually run and committed
  std::size_t failed = 0;      ///< jobs whose simulation threw
  std::size_t cancelled = 0;   ///< jobs not committed: stop_before ended the
                               ///< run early (lease shrunk by the parent)
  /// Simulation events dispatched across all committed jobs (the sum of
  /// Scheduler::executed() per run) — the engine-level throughput measure.
  std::uint64_t total_events = 0;
  double elapsed_seconds = 0.0;
  DurationStats job_wall;           ///< per-job wall-time distribution
  std::vector<std::string> errors;  ///< first kMaxErrors failure messages

  bool ok() const noexcept { return failed == 0; }
  /// Jobs that ran, failed ones included, per elapsed second.
  double jobs_per_second() const noexcept {
    return elapsed_seconds > 0
               ? static_cast<double>(executed + failed) / elapsed_seconds
               : 0.0;
  }
  double events_per_second() const noexcept {
    return elapsed_seconds > 0
               ? static_cast<double>(total_events) / elapsed_seconds
               : 0.0;
  }
  std::string summary() const;
};

class Executor {
 public:
  explicit Executor(ExecutorOptions opts = {}) : opts_(opts) {}

  /// Run every job remaining in `queue`. Sink writes happen in ascending
  /// job-index order on the committer thread (sinks need no locking). A
  /// job that throws is reported in the BatchReport and not written (so a
  /// later resume retries it). The first sink I/O error stops the workers
  /// and is rethrown once every thread has joined; so is an exception from
  /// stop_before.
  BatchReport run(JobQueue& queue, ResultSink& sink);

 private:
  ExecutorOptions opts_;
};

}  // namespace oracle::exp
