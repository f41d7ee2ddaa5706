#include "exp/executor.hpp"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <exception>
#include <iostream>
#include <mutex>
#include <optional>
#include <string_view>
#include <thread>

#include "core/simulator.hpp"
#include "obs/status.hpp"
#include "obs/trace.hpp"
#include "util/parallel_for.hpp"
#include "util/string_util.hpp"

namespace oracle::exp {

namespace {

constexpr auto kCommitInterval = std::chrono::milliseconds(2);
// A plain-line ticker (piped or CI stderr) prints at most this often.
constexpr auto kPlainTickerInterval = std::chrono::seconds(10);

std::string format_eta(double seconds) {
  if (seconds < 0) return "?";
  const auto s = static_cast<long long>(seconds + 0.5);
  if (s < 60) return strfmt("%llds", s);
  if (s < 3600) return strfmt("%lldm%02llds", s / 60, s % 60);
  return strfmt("%lldh%02lldm", s / 3600, (s % 3600) / 60);
}

}  // namespace

DurationStats DurationStats::from_samples(std::vector<double> seconds) {
  DurationStats d;
  if (seconds.empty()) return d;
  std::sort(seconds.begin(), seconds.end());
  d.count = seconds.size();
  d.min_s = seconds.front();
  d.max_s = seconds.back();
  double sum = 0.0;
  for (const double s : seconds) sum += s;
  d.mean_s = sum / static_cast<double>(d.count);
  const auto at = [&](double q) {
    const auto idx = static_cast<std::size_t>(
        std::llround(q * static_cast<double>(d.count - 1)));
    return seconds[idx];
  };
  d.p50_s = at(0.50);
  d.p95_s = at(0.95);
  d.p99_s = at(0.99);
  return d;
}

std::string DurationStats::summary() const {
  if (count == 0) return "job wall: n/a";
  return strfmt(
      "job wall: min %.2fms / mean %.2fms / p50 %.2fms / p95 %.2fms / "
      "p99 %.2fms / max %.2fms (n=%zu)",
      min_s * 1e3, mean_s * 1e3, p50_s * 1e3, p95_s * 1e3, p99_s * 1e3,
      max_s * 1e3, count);
}

std::string BatchReport::summary() const {
  std::string s = strfmt(
      "%zu jobs: %zu executed, %zu skipped (cached), %zu failed in %.2fs "
      "(%.1f jobs/s)",
      total_jobs, executed, skipped, failed, elapsed_seconds,
      jobs_per_second());
  if (cancelled > 0) s += strfmt(", %zu released (lease shrunk)", cancelled);
  return s;
}

BatchReport Executor::run(JobQueue& queue, ResultSink& sink) {
  using Clock = std::chrono::steady_clock;

  const std::size_t n = queue.size();
  BatchReport report;
  report.total_jobs = n;
  if (n == 0) return report;

  std::size_t workers = opts_.workers;
  if (workers == 0) workers = std::max(1u, std::thread::hardware_concurrency());
  workers = std::min(workers, n);

  // Ordered-commit state, guarded by `mutex`. Slot i corresponds to queue
  // position i (ascending job index); a slot holds the finished result, or
  // nullopt + failed flag for a job that threw. `next_commit` is the first
  // slot the committer has not taken yet; `committed` the first slot whose
  // group is not yet flushed.
  std::mutex mutex;
  std::condition_variable frontier_ready;  // committer: frontier slot filled
  std::condition_variable commit_done;     // workers: `committed` advanced
  std::vector<std::optional<stats::RunResult>> pending(n);
  std::vector<char> failed(n, 0);
  std::vector<char> finished(n, 0);
  std::size_t next_commit = 0;
  std::size_t committed = 0;
  bool workers_done = false;
  std::exception_ptr first_error;
  // Set by the first error (a sink write/flush or a throwing stop_before):
  // workers stop claiming, so a dead store fails the run fast instead of
  // simulating the whole remaining queue into memory nobody will drain.
  std::atomic<bool> aborted{false};
  // Set when opts_.stop_before vetoes a job: the run winds down cleanly —
  // in-flight jobs commit, nothing new starts. The commit frontier halts
  // at the first skipped position, so the store keeps its clean-prefix
  // shape and the abandoned tail stays unclaimed for another worker.
  std::atomic<bool> stopped{false};

  // Called with `mutex` held.
  const auto fail = [&](std::exception_ptr error) {
    if (!first_error) first_error = std::move(error);
    aborted.store(true, std::memory_order_relaxed);
    commit_done.notify_all();
  };

  const auto start = Clock::now();
  auto last_progress = start;
  auto last_status = start;
  std::ostream* prog =
      opts_.progress_stream ? opts_.progress_stream : &std::cerr;
  // Overwrite-in-place only when a human is watching: piped/CI stderr gets
  // plain lines, throttled so the log doesn't fill with ticker output.
  const bool tty = opts_.progress_tty < 0
                       ? (prog == &std::cerr && ::isatty(2) != 0)
                       : opts_.progress_tty > 0;
  const Clock::duration line_every =
      tty ? Clock::duration(obs::kStatusInterval) : kPlainTickerInterval;

  // Runs on the committer thread with phase "running", and once more
  // after it joins with the terminal phase, which forces both outputs;
  // `done` jobs are committed.
  auto report_progress = [&](std::size_t done, const char* phase) {
    if (!opts_.progress && opts_.status_path.empty()) return;
    const bool force = std::string_view(phase) != "running";
    const auto now = Clock::now();
    // The status file keeps the un-throttled cadence even when the plain-
    // line ticker is throttled for CI logs: a dashboard polling the file
    // must see progress every kStatusInterval, not every 10s.
    const bool do_line =
        opts_.progress && (force || now - last_progress >= line_every);
    const bool do_status =
        !opts_.status_path.empty() &&
        (force || now - last_status >= obs::kStatusInterval);
    if (!do_line && !do_status) return;
    obs::StatusSnapshot st;
    st.phase = phase;
    st.jobs_total = n;
    st.jobs_done = done;
    st.elapsed_seconds = std::chrono::duration<double>(now - start).count();
    if (do_line) {
      last_progress = now;
      const std::string line =
          strfmt("[exp] %zu/%zu jobs (%.1f%%) | %.1f jobs/s | ETA %s",
                 done, n, 100.0 * static_cast<double>(done) / n,
                 st.jobs_per_second(), format_eta(st.eta_seconds()).c_str());
      if (tty) {
        // Trailing pad clears residue when the line shrinks; the final
        // (forced) line is newline-terminated so the next write starts
        // clean.
        *prog << '\r' << line << "   ";
        if (force) *prog << '\n';
        prog->flush();
      } else {
        *prog << line << '\n';
      }
    }
    if (do_status) {
      last_status = now;
      obs::write_status_file(opts_.status_path, st);
    }
  };

  // The committer: the only thread that touches the sink. It sleeps until
  // the frontier slot is filled, takes every contiguous finished slot as
  // one group, and writes + flushes the group with the lock released — so
  // the next group grows by itself while this one's fsync is in flight.
  // It exits once the workers are done and the frontier can move no more.
  auto commit_loop = [&] {
    std::unique_lock<std::mutex> lock(mutex);
    auto last_flush = Clock::now();
    while (true) {
      frontier_ready.wait(lock, [&] {
        return workers_done || finished[next_commit];
      });
      // At most one flush per kCommitInterval while workers run, so a
      // group holds several frontier arrivals, not one or two. A lone
      // worker never waits: with stop_before it fences on each commit.
      if (workers > 1)
        frontier_ready.wait_until(lock, last_flush + kCommitInterval,
                                  [&] { return workers_done; });
      last_flush = Clock::now();
      std::vector<std::pair<const ExperimentJob*, stats::RunResult>> group;
      const std::size_t begin = next_commit;
      while (next_commit < n && finished[next_commit]) {
        const std::size_t pos = next_commit++;
        if (failed[pos]) continue;
        ++report.executed;
        report.total_events += pending[pos]->events_executed;
        group.emplace_back(&queue.job(pos), std::move(*pending[pos]));
        pending[pos].reset();  // free the result memory promptly
      }
      if (next_commit == begin) return;  // workers done, frontier halted
      const std::size_t end = next_commit;
      lock.unlock();
      try {
        if (!group.empty()) {
          obs::Span commit_span("exec", "commit", "jobs",
                                static_cast<std::int64_t>(group.size()));
          for (const auto& [job, result] : group) sink.write(*job, result);
          sink.flush();
        }
        report_progress(end, "running");
      } catch (...) {
        lock.lock();
        fail(std::current_exception());
        return;
      }
      lock.lock();
      committed = end;
      commit_done.notify_all();
      if (end == n) return;
    }
  };

  // Per-job wall times, written lock-free: each queue position is run by
  // exactly one worker thread.
  std::vector<double> wall_s(n, 0.0);

  auto work_loop = [&](std::size_t) {
    // Steady-clock mark of when this thread last finished useful work;
    // the gap to the next job's start is its queue-wait (claim plus
    // deposit time), recorded as an arg on the job span.
    std::int64_t idle_since_ns =
        obs::Tracer::enabled() ? obs::Tracer::now_ns() : 0;
    try {
      while (!aborted.load(std::memory_order_relaxed) &&
             !stopped.load(std::memory_order_relaxed)) {
        const auto claimed = queue.claim();
        if (!claimed) return;
        const std::size_t pos = *claimed;
        const ExperimentJob& job = queue.job(pos);
        if (opts_.stop_before) {
          // One worker: the job the hook sees is the first uncommitted one.
          if (workers == 1) {
            std::unique_lock<std::mutex> lock(mutex);
            commit_done.wait(lock, [&] {
              return committed >= pos ||
                     aborted.load(std::memory_order_relaxed) ||
                     stopped.load(std::memory_order_relaxed);
            });
            if (committed < pos) return;
          }
          if (opts_.stop_before(job)) {
            {
              std::lock_guard<std::mutex> lock(mutex);
              stopped.store(true, std::memory_order_relaxed);
            }
            commit_done.notify_all();
            return;
          }
        }
        std::optional<stats::RunResult> result;
        std::string error;
        std::int64_t wait_us = 0;
        if (obs::Tracer::enabled())
          wait_us = (obs::Tracer::now_ns() - idle_since_ns) / 1000;
        const auto job_start = Clock::now();
        {
          obs::Span job_span("exec", "job", "index",
                             static_cast<std::int64_t>(job.index), "wait_us",
                             wait_us);
          try {
            result = core::run_experiment(job.config);
          } catch (const std::exception& e) {
            error = e.what();
          }
        }
        wall_s[pos] =
            std::chrono::duration<double>(Clock::now() - job_start).count();
        if (obs::Tracer::enabled()) idle_since_ns = obs::Tracer::now_ns();
        bool at_frontier = false;
        {
          std::lock_guard<std::mutex> lock(mutex);
          if (result) {
            pending[pos] = std::move(result);
          } else {
            failed[pos] = 1;
            ++report.failed;
            if (report.errors.size() < BatchReport::kMaxErrors) {
              report.errors.push_back(
                  strfmt("job %zu (%s): %s", job.index,
                         job.config.label().c_str(), error.c_str()));
            }
          }
          finished[pos] = 1;
          at_frontier = pos == next_commit;
        }
        if (at_frontier) frontier_ready.notify_one();
      }
    } catch (...) {
      std::lock_guard<std::mutex> lock(mutex);
      fail(std::current_exception());
    }
  };

  std::thread committer(commit_loop);
  parallel_for(workers, workers, work_loop);
  {
    std::lock_guard<std::mutex> lock(mutex);
    workers_done = true;
  }
  frontier_ready.notify_one();
  committer.join();
  if (first_error) std::rethrow_exception(first_error);

  // `executed` was counted at the commit frontier; everything the frontier
  // never reached (skipped by stop_before, or finished behind a skipped
  // position and therefore not committed) counts as cancelled and will be
  // re-run by whichever worker the parent re-leases it to.
  report.cancelled = n - committed;
  report.elapsed_seconds =
      std::chrono::duration<double>(Clock::now() - start).count();
  {
    // Every job whose simulation ran to completion contributes a sample,
    // committed or not (an uncommitted run still took that long).
    std::vector<double> samples;
    samples.reserve(n);
    for (std::size_t i = 0; i < n; ++i)
      if (finished[i] && !failed[i]) samples.push_back(wall_s[i]);
    report.job_wall = DurationStats::from_samples(std::move(samples));
  }
  report_progress(committed, report.ok() ? "done" : "failed");
  return report;
}

}  // namespace oracle::exp
