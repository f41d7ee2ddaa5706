#include "exp/lease_worker.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <fstream>
#include <thread>
#include <unordered_set>

#include "exp/job_queue.hpp"
#include "exp/result_sink.hpp"
#include "exp/store_index.hpp"
#include "obs/trace.hpp"
#include "topo/factory.hpp"
#include "util/error.hpp"
#include "util/file_util.hpp"
#include "util/log.hpp"
#include "util/net.hpp"
#include "util/posix_io.hpp"
#include "util/string_util.hpp"

namespace oracle::exp {

// ------------------------------------------------------------- WorkerSlot --

std::optional<WorkerSlot> WorkerSlot::parse(const std::string& text) {
  const auto slash = text.find('/');
  if (slash == std::string::npos || slash == 0 || slash + 1 >= text.size())
    return std::nullopt;
  std::int64_t index = 0, count = 0;
  try {
    index = parse_int(trim(text.substr(0, slash)), "worker slot");
    count = parse_int(trim(text.substr(slash + 1)), "slot count");
  } catch (const ConfigError&) {
    return std::nullopt;
  }
  // Validate on the signed values: a negative count must not wrap into a
  // huge slot count.
  if (index < 0 || count < 1 || index >= count) return std::nullopt;
  return WorkerSlot{static_cast<std::size_t>(index),
                    static_cast<std::size_t>(count)};
}

std::string worker_store_path(const std::string& canonical_store,
                              std::size_t slot, std::size_t count) {
  return canonical_store + strfmt(".worker%zuof%zu", slot, count);
}

// ------------------------------------------------------------- quarantine --

std::string quarantine_path(const std::string& canonical_store) {
  return canonical_store + ".quarantine";
}

std::vector<QuarantineEntry> read_quarantine_file(const std::string& path) {
  std::vector<QuarantineEntry> entries;
  std::ifstream in(path);
  if (!in) return entries;
  std::string hash_str;
  unsigned long long index = 0;
  while (in >> hash_str >> index) {
    QuarantineEntry e;
    if (!parse_hash_hex(hash_str, e.content_hash)) continue;  // torn tail
    e.job_index = static_cast<std::size_t>(index);
    entries.push_back(e);
  }
  return entries;
}

void append_quarantine_entry(const std::string& path,
                             const QuarantineEntry& entry) {
  const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
  if (fd < 0)
    throw SimulationError("cannot open quarantine file '" + path + "'");
  const std::string line =
      hash_hex(entry.content_hash) + strfmt(" %zu\n", entry.job_index);
  const bool ok =
      util::write_full(fd, line.data(), line.size()) && util::fsync_retry(fd);
  ::close(fd);
  if (!ok)
    throw SimulationError("quarantine append to '" + path + "' failed");
}

// ------------------------------------------------ run_lease_client_worker --

namespace {

[[noreturn]] void fire_death_fault(bool with_sigkill) {
  if (with_sigkill) {
    ::raise(SIGKILL);
    // raise() cannot return for SIGKILL, but keep the compiler satisfied.
  }
  ::_exit(1);
}

void accumulate_batch(BatchReport* into, const BatchReport& one) {
  into->total_jobs += one.total_jobs;
  into->skipped += one.skipped;
  into->executed += one.executed;
  into->failed += one.failed;
  into->cancelled += one.cancelled;
  into->total_events += one.total_events;
  into->elapsed_seconds += one.elapsed_seconds;
  for (const auto& e : one.errors)
    if (into->errors.size() < BatchReport::kMaxErrors)
      into->errors.push_back(e);
}

/// The last sink of a lease run. Once the store's group fsync returned, it
/// commits the new durable frontier — the first queue job not yet
/// written, or the lease end — to the lease server. The reply's lease end
/// (shrunk by steals) and fencing verdict feed stop(), which the executor
/// consults before every job.
class LeaseCommitSink : public ResultSink {
 public:
  using Clock = std::chrono::steady_clock;

  LeaseCommitSink(LeaseClient& client, const LeaseGrant& grant,
                  const JobQueue& queue)
      : client_(client),
        grant_(grant),
        queue_(queue),
        committed_(grant.begin),
        end_(grant.end) {}

  void write(const ExperimentJob& job, const stats::RunResult&) override {
    written_ = job.index + 1;
  }

  /// Also called once before the run, so the jobs skipped as already
  /// complete count as committed before the first job starts.
  void flush() override {
    while (next_ < queue_.size() && queue_.job(next_).index < written_)
      ++next_;
    const std::size_t frontier =
        next_ < queue_.size() ? queue_.job(next_).index : grant_.end;
    if (frontier <= committed_) return;
    // The wall since the last commit is the pace sample behind the
    // server's adaptive expiry; a commit before any job ran carries none.
    const auto now = Clock::now();
    const auto wall_us =
        written_ == 0 ? 0
                      : static_cast<std::uint64_t>(
                            std::chrono::duration_cast<std::chrono::microseconds>(
                                now - last_commit_)
                                .count());
    last_commit_ = now;
    std::size_t end = end_.load(std::memory_order_relaxed);
    switch (client_.commit(grant_.epoch, frontier, wall_us, &end)) {
      case LeaseClient::CommitResult::kOk:
        committed_ = frontier;
        end_.store(end, std::memory_order_relaxed);
        break;
      case LeaseClient::CommitResult::kFenced:
        fenced_.store(true, std::memory_order_relaxed);
        break;
      case LeaseClient::CommitResult::kDone:
        done_.store(true, std::memory_order_relaxed);
        break;
    }
  }

  /// True once the job belongs to someone else: past the (possibly
  /// stolen-from) lease end, or the lease was fenced or the sweep is done.
  bool stop(const ExperimentJob& job) const {
    return fenced() || done() ||
           job.index >= end_.load(std::memory_order_relaxed);
  }
  bool fenced() const { return fenced_.load(std::memory_order_relaxed); }
  bool done() const { return done_.load(std::memory_order_relaxed); }
  std::size_t end() const { return end_.load(std::memory_order_relaxed); }

 private:
  LeaseClient& client_;
  const LeaseGrant grant_;
  const JobQueue& queue_;
  std::size_t written_ = 0;    ///< one past the last job written
  std::size_t next_ = 0;       ///< queue position of the first unwritten job
  std::size_t committed_;      ///< frontier the server acknowledged
  Clock::time_point last_commit_ = Clock::now();
  std::atomic<std::size_t> end_;
  std::atomic<bool> fenced_{false};
  std::atomic<bool> done_{false};
};

}  // namespace

LeaseWorkerReport run_lease_client_worker(
    const std::vector<core::ExperimentConfig>& configs,
    const LeaseWorkerOptions& options) {
  ORACLE_REQUIRE(!options.canonical_out.empty(),
                 "lease workers need the canonical --out store path");
  ORACLE_REQUIRE(options.client.server.port != 0,
                 "run_lease_client_worker needs a lease server address");
  ORACLE_REQUIRE(options.client.slot < options.client.slot_count,
                 "lease worker slot out of range");
  const std::size_t slot = options.client.slot;
  const std::size_t slot_count = options.client.slot_count;
  const std::string store =
      worker_store_path(options.canonical_out, slot, slot_count);

  LeaseClientOptions copt = options.client;
  copt.jobs = configs.size();
  LeaseClient client(copt);

  // Jobs a store already covers: this slot's durable prefix, sibling
  // slots that ran part of a stolen or expired lease, and on resume the
  // canonical store. Each lease refreshes the index, which reads only what
  // was appended since the last one: siblings keep writing after this
  // worker starts.
  StoreIndex covered;
  covered.add_store(store);
  for (std::size_t j = 0; j < slot_count; ++j)
    if (j != slot)
      covered.add_store(
          worker_store_path(options.canonical_out, j, slot_count));
  if (options.merge_resume) covered.add_store(options.canonical_out);

  const WorkerTestHooks& hooks = options.hooks;
  auto fault_armed = [&hooks]() {
    return hooks.once_marker.empty() || !util::file_exists(hooks.once_marker);
  };
  auto mark_fired = [&hooks]() {
    if (!hooks.once_marker.empty()) util::touch_file(hooks.once_marker);
  };
  std::atomic<std::size_t> jobs_started{0};

  LeaseWorkerReport report;
  try {
    std::optional<LeaseGrant> grant = client.acquire();
    while (grant) {
      obs::Span lease_span("lease", "worker.lease", "begin",
                           static_cast<std::int64_t>(grant->begin), "end",
                           static_cast<std::int64_t>(grant->end));
      ORACLE_LOG_INFO(strfmt(
          "slot %zu leased [%zu,%zu) epoch %llu from %s", slot,
          grant->begin, grant->end,
          static_cast<unsigned long long>(grant->epoch),
          options.client.server.str().c_str()));

      // Only the lease's window is planned: numbered and seeded by sweep
      // index, so its jobs match the whole sweep's.
      JobQueue queue(configs, options.master_seed, grant->begin, grant->end);
      const std::size_t planned = queue.size();
      covered.refresh();
      // Quarantined poison jobs never run again; the supervisor appends
      // its verdicts mid-run, so the file is re-read per lease.
      std::unordered_set<std::uint64_t> quarantined;
      for (const auto& q :
           read_quarantine_file(quarantine_path(options.canonical_out)))
        quarantined.insert(q.content_hash);
      const std::size_t skipped =
          queue.skip_completed(covered) + queue.skip_completed(quarantined);
      {
        // As run_batch: each distinct topology builds once, not once per
        // racing executor thread.
        std::vector<std::string> specs;
        specs.reserve(queue.size());
        for (const auto& job : queue.jobs())
          specs.push_back(job.config.topology);
        topo::prewarm_topology_cache(specs);
      }

      // Append + skip-completed: a respawned or re-leased worker continues
      // its own durable prefix.
      JsonlSink store_sink(store, /*append=*/true);
      LeaseCommitSink commit(client, *grant, queue);
      TeeSink tee;
      tee.add(store_sink);
      tee.add(commit);  // last: commits only what the store has fsynced
      commit.flush();

      ExecutorOptions exec;
      exec.workers = std::max<std::size_t>(1, options.threads);
      exec.stop_before = [&](const ExperimentJob& job) {
        const std::size_t n =
            jobs_started.fetch_add(1, std::memory_order_relaxed);
        if ((n == hooks.die_after_n_jobs ||
             job.index == hooks.die_on_job_index) &&
            fault_armed()) {
          mark_fired();
          fire_death_fault(hooks.die_with_sigkill);
        }
        if (n == hooks.stall_after_n_jobs && fault_armed()) {
          mark_fired();
          std::this_thread::sleep_for(
              std::chrono::milliseconds(hooks.stall_ms));
        }
        return commit.stop(job);
      };
      BatchReport batch = Executor(exec).run(queue, tee);
      batch.total_jobs = planned;
      batch.skipped = skipped;
      accumulate_batch(&report.batch, batch);
      ++report.leases_run;

      if (commit.fenced()) {
        // The server revoked this epoch (we were presumed dead). Our
        // durable records are harmless duplicates; ask for fresh work
        // under a fresh epoch.
        report.fenced = true;
        ORACLE_LOG_WARN(strfmt(
            "slot %zu fenced mid-lease (epoch %llu); re-acquiring",
            slot, static_cast<unsigned long long>(grant->epoch)));
        grant = client.acquire();
        continue;
      }
      if (commit.done()) break;

      // Lease drained: publish its end, then ask for more.
      if (client.commit(grant->epoch, commit.end(), 0, nullptr) ==
          LeaseClient::CommitResult::kDone)
        break;
      grant = client.next_lease(grant->epoch);
    }
  } catch (const LeaseOrphanedError& e) {
    // Committed prefix is already fsynced; surface the distinct orphaned
    // outcome so the launcher exits with its own code and a later
    // --resume reshapes leases around this worker's store.
    ORACLE_LOG_WARN(strfmt("slot %zu orphaned: %s", slot, e.what()));
    obs::instant("lease", "worker.orphaned", "slot",
                 static_cast<std::int64_t>(slot));
    report.orphaned = true;
  }
  report.retries = client.retries();
  report.reconnects = client.reconnects();
  return report;
}

}  // namespace oracle::exp
