#include "exp/shard.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <memory>
#include <thread>
#include <unordered_map>
#include <unordered_set>

#include "exp/job_queue.hpp"
#include "exp/lease_client.hpp"
#include "exp/lease_service.hpp"
#include "exp/result_sink.hpp"
#include "obs/status.hpp"
#include "obs/trace.hpp"
#include "topo/factory.hpp"
#include "util/error.hpp"
#include "util/file_util.hpp"
#include "util/log.hpp"
#include "util/net.hpp"
#include "util/posix_io.hpp"
#include "util/string_util.hpp"

#if !defined(_WIN32)
#include <csignal>
#include <fcntl.h>
#include <sys/wait.h>
#include <unistd.h>
#endif

namespace oracle::exp {

// -------------------------------------------------------------- ShardSpec --

std::optional<ShardSpec> ShardSpec::parse(const std::string& text) {
  const auto slash = text.find('/');
  if (slash == std::string::npos || slash == 0 || slash + 1 >= text.size())
    return std::nullopt;
  std::int64_t index = 0, count = 0;
  try {
    index = parse_int(trim(text.substr(0, slash)), "shard index");
    count = parse_int(trim(text.substr(slash + 1)), "shard count");
  } catch (const ConfigError&) {
    return std::nullopt;
  }
  // Validate on the signed values: a negative count must not wrap into a
  // huge modulus that silently assigns (almost) no jobs to any worker.
  if (index < 0 || count < 1 || index >= count) return std::nullopt;
  return ShardSpec{static_cast<std::size_t>(index),
                   static_cast<std::size_t>(count)};
}

std::string ShardSpec::to_string() const {
  return strfmt("%zu/%zu", index, count);
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
#if defined(_WIN32)
  std::ofstream out(path, std::ios::app);
  out << hash_hex(entry.content_hash) << ' ' << entry.job_index << '\n';
#else
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
#endif
}

// ------------------------------------------------------------ ShardMerger --

void ShardMerger::add_store(const std::string& path) {
  std::ifstream in(path);
  if (!in) return;  // a shard with no work never creates its store
  ++report_.stores_read;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    const auto rec = parse_jsonl_record(line);
    if (!rec) {
      ++report_.corrupt_lines;  // a killed worker's partial tail line
      continue;
    }
    records_.push_back({rec->job_index, rec->content_hash, line});
  }
}

MergeReport ShardMerger::merge_to(const std::string& canonical_path) {
  // Job order is the serial engine's commit order, so sorting by job index
  // reproduces a serial run byte-for-byte (records themselves are written
  // deterministically by the sinks). stable_sort keeps first-seen order
  // for duplicate hashes, which the dedup below then collapses.
  std::stable_sort(records_.begin(), records_.end(),
                   [](const Record& a, const Record& b) {
                     return a.job_index < b.job_index;
                   });

  const std::string tmp = canonical_path + ".merge.tmp";
  {
    std::ofstream store(tmp, std::ios::out | std::ios::trunc);
    if (!store)
      throw SimulationError("cannot open '" + tmp + "' for writing");
    std::unordered_set<std::uint64_t> seen;
    seen.reserve(records_.size());
    for (const auto& rec : records_) {
      if (!seen.insert(rec.content_hash).second) {
        ++report_.duplicates_dropped;
        continue;
      }
      store << rec.line << '\n';
      ++report_.records;
    }
    store.flush();
    if (!store)
      throw SimulationError("merge write to '" + tmp + "' failed");
  }
  util::atomic_replace(tmp, canonical_path);
  return report_;
}

// ------------------------------------------------ run_lease_client_worker --

namespace {

[[noreturn]] void fire_death_fault(bool with_sigkill) {
#if defined(_WIN32)
  (void)with_sigkill;
  std::_Exit(1);
#else
  if (with_sigkill) {
    ::raise(SIGKILL);
    // raise() cannot return for SIGKILL, but keep the compiler satisfied.
  }
  ::_exit(1);
#endif
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
    if (into->errors.size() < 16) into->errors.push_back(e);
  into->jobs_per_second =
      into->elapsed_seconds > 0
          ? static_cast<double>(into->executed) / into->elapsed_seconds
          : 0.0;
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
  ORACLE_REQUIRE(!options.lease_server.empty(),
                 "run_lease_client_worker needs --lease-server");
  ORACLE_REQUIRE(options.slot < std::max<std::size_t>(options.slot_count, 1),
                 "lease worker slot out of range");
  const auto server = util::HostPort::parse(options.lease_server);
  if (!server)
    throw ConfigError("bad --lease-server address: " + options.lease_server);

  const std::string store =
      worker_store_path(options.canonical_out, options.slot,
                        options.slot_count);

  LeaseClientOptions copt;
  copt.server = *server;
  copt.slot = options.slot;
  copt.slot_count = std::max<std::size_t>(options.slot_count, 1);
  copt.jobs = configs.size();
  copt.op_timeout_ms = options.op_timeout_ms;
  copt.retry_budget = options.retry_budget;
  copt.backoff_base_ms = options.backoff_base_ms;
  copt.backoff_cap_ms = options.backoff_cap_ms;
  LeaseClient client(copt);

  // Jobs another record already covers: sibling slots may have run part
  // of a stolen lease, the canonical store holds merged jobs on resume,
  // and quarantined poison jobs must never run again. Re-read per lease.
  auto completed_elsewhere = [&] {
    auto done = load_completed_hashes(store);
    for (std::size_t j = 0; j < options.slot_count; ++j)
      if (j != options.slot)
        done.merge(load_completed_hashes(
            worker_store_path(options.canonical_out, j, options.slot_count)));
    if (options.merge_resume)
      done.merge(load_completed_hashes(options.canonical_out));
    for (const auto& q :
         read_quarantine_file(quarantine_path(options.canonical_out)))
      done.insert(q.content_hash);
    return done;
  };

  const ShardTestHooks& hooks = options.hooks;
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
          "slot %zu leased [%zu,%zu) epoch %llu from %s", options.slot,
          grant->begin, grant->end,
          static_cast<unsigned long long>(grant->epoch),
          options.lease_server.c_str()));

      // Numbered and seeded over the whole sweep, then cut to the lease;
      // the full queue lives only this long, so a worker's footprint is
      // its lease.
      JobQueue queue = [&] {
        JobQueue sweep(configs);
        if (options.master_seed != 0) sweep.derive_seeds(options.master_seed);
        return sweep.slice(grant->begin, grant->end);
      }();
      const std::size_t planned = queue.size();
      const std::size_t skipped = queue.skip_completed(completed_elsewhere());
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
            options.slot, static_cast<unsigned long long>(grant->epoch)));
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
    ORACLE_LOG_WARN(strfmt("slot %zu orphaned: %s", options.slot, e.what()));
    obs::instant("lease", "worker.orphaned", "slot",
                 static_cast<std::int64_t>(options.slot));
    report.orphaned = true;
  }
  report.retries = client.retries();
  report.reconnects = client.reconnects();
  return report;
}

// -------------------------------------------------------------- supervisor --

bool ShardRunReport::ok() const noexcept {
  // The merge is the completion criterion: failed exits of workers the
  // supervisor restarted do not count against a run that converged.
  return merged;
}

std::string ShardRunReport::summary() const {
  std::size_t failed = 0;
  for (const auto& w : workers)
    if (!w.ok()) ++failed;
  std::string s = strfmt("%zu jobs over %zu worker(s)", planned_jobs,
                         shards_launched);
  if (steals > 0) s += strfmt(", %zu lease(s) stolen", steals);
  if (restarts > 0) s += strfmt(", %zu worker(s) auto-restarted", restarts);
  if (quarantined > 0)
    s += strfmt(", %zu poison job(s) quarantined", quarantined);
  if (orphaned > 0)
    s += strfmt(", %zu worker(s) orphaned by the lease server", orphaned);
  if (failed > 0) s += strfmt(", %zu worker exit(s) failed", failed);
  if (merged)
    s += strfmt("; merged %zu record(s) (%zu duplicate(s) dropped)",
                merge.records, merge.duplicates_dropped);
  else
    s += "; merge skipped (re-run with --resume to finish)";
  return s;
}

#if defined(_WIN32)

std::string self_exec_path(const std::string& argv0) { return argv0; }

ShardRunReport run_sharded_processes(
    const std::vector<core::ExperimentConfig>&, const ShardRunOptions&) {
  throw SimulationError("multi-process runs require a POSIX host");
}

#else

std::string self_exec_path(const std::string& argv0) {
  char buf[4096];
  const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
  if (n > 0) {
    buf[n] = '\0';
    return std::string(buf);
  }
  return argv0;
}

namespace {

/// Supervisor poll period: each pass reaps exited workers and asks the
/// lease service for every slot's contact age.
constexpr auto kSupervisorPoll = std::chrono::milliseconds(25);

/// Fork+exec one worker; returns its pid, or throws when fork fails (the
/// caller owns cleanup of any siblings). The child reports exec failure
/// through the conventional 127 exit code without parent-side cleanup.
pid_t spawn_one(const std::vector<std::string>& args) {
  std::vector<char*> argv;
  argv.reserve(args.size() + 1);
  for (const auto& arg : args) argv.push_back(const_cast<char*>(arg.c_str()));
  argv.push_back(nullptr);

  const pid_t pid = ::fork();
  if (pid < 0)
    throw SimulationError("fork failed for shard worker");
  if (pid == 0) {
    ::execv(argv[0], argv.data());
    std::fprintf(stderr, "oracle_batch: cannot exec '%s'\n", argv[0]);
    ::_exit(127);
  }
  return pid;
}

/// Per-slot process state the supervisor tracks between polls.
struct SlotProc {
  pid_t pid = -1;
  std::chrono::steady_clock::time_point spawned{};
  std::size_t restarts = 0;
  bool kill_sent = false;  ///< SIGKILL dispatched for an expired slot
};

/// A LeaseService serving on its own thread until scope exit.
struct ServiceThread {
  std::unique_ptr<LeaseService> service;
  std::thread thread;

  ~ServiceThread() {
    if (!thread.joinable()) return;
    service->stop();
    thread.join();
  }
};

}  // namespace

ShardRunReport run_sharded_processes(
    const std::vector<core::ExperimentConfig>& configs,
    const ShardRunOptions& options) {
  using Clock = std::chrono::steady_clock;
  ORACLE_REQUIRE(!options.out.empty(),
                 "sharded runs need a canonical --out store");
  ORACLE_REQUIRE(options.workers >= 1, "--workers must be >= 1");
  ORACLE_REQUIRE(!options.exec_path.empty(),
                 "sharded runs need the worker executable path");
  ORACLE_REQUIRE(!configs.empty(), "sharded run over an empty sweep");
  ORACLE_REQUIRE(options.lease_server.empty() || options.heartbeat_ms == 0,
                 "--heartbeat-ms sets the in-process lease service's expiry; "
                 "a remote --lease-server owns its own");

  JobQueue queue(configs);
  if (options.master_seed != 0) queue.derive_seeds(options.master_seed);
  const std::size_t n = queue.size();

  ShardRunReport report;
  report.planned_jobs = n;
  // One worker per job at most: a slot without a lease buys nothing but a
  // process spawn.
  const std::size_t slots =
      std::max<std::size_t>(1, std::min(options.workers, n));
  report.shards_launched = slots;

  // Quarantine lifecycle: a fresh run forgets old verdicts, --resume keeps
  // them (the poison jobs stay skipped), --resume --retry-quarantined
  // wipes the file so the recorded jobs get another chance.
  const std::string qpath = quarantine_path(options.out);
  if (!options.resume || options.retry_quarantined) util::remove_file(qpath);
  std::unordered_set<std::uint64_t> quarantined;
  for (const auto& q : read_quarantine_file(qpath))
    quarantined.insert(q.content_hash);
  const std::size_t prior_quarantined = quarantined.size();
  // Deaths per suspect job (the job at the dead slot's committed frontier).
  std::unordered_map<std::uint64_t, std::size_t> suspect_deaths;

  if (!options.resume) {
    // A fresh run must not inherit stale slot state from an older run of
    // the same layout (workers append to their stores by design — and so
    // do their trace files, which survive SIGKILL the same way).
    for (std::size_t k = 0; k < slots; ++k) {
      util::remove_file(worker_store_path(options.out, k, slots));
      if (!options.trace_path.empty())
        util::remove_file(obs::worker_trace_path(options.trace_path, k, slots));
    }
  }

  // The lease service: the remote one named by --lease-server, or one this
  // process serves on loopback until the run returns. The
  // in-process one keeps no journal: the slot stores are the durable
  // record, and a --resume rebuilds the leases around them.
  ServiceThread local;
  std::string server = options.lease_server;
  if (server.empty()) {
    LeaseServiceOptions lopt;
    lopt.jobs = n;
    lopt.slots = slots;
    lopt.master_seed = options.master_seed;
    lopt.min_steal_jobs = options.min_steal_jobs;
    lopt.expiry_ms = options.heartbeat_ms;
    // Keep answering `done` until stop(): every worker must hear it.
    lopt.linger_ms = std::numeric_limits<std::uint32_t>::max();
    local.service = std::make_unique<LeaseService>(lopt);
    local.service->start();
    server = strfmt("127.0.0.1:%u", static_cast<unsigned>(local.service->port()));
    local.thread = std::thread([&service = *local.service] {
      try {
        service.run();
      } catch (const std::exception& e) {
        ORACLE_LOG_ERROR(strfmt("in-process lease service failed: %s",
                                e.what()));
      }
    });
  }
  const auto server_addr = util::HostPort::parse(server);
  if (!server_addr)
    throw ConfigError("bad --lease-server address: " + server);

  // The supervisor's own view of the service: the status op, best-effort
  // (one quick retry, never orphaned — a dead remote server just means
  // no lease/frontier detail).
  LeaseClientOptions status_opt;
  status_opt.server = *server_addr;
  status_opt.op_timeout_ms = 500;
  status_opt.retry_budget = 1;
  LeaseClient status_client(status_opt);
  auto server_status = [&]() -> std::optional<obs::StatusSnapshot> {
    const auto text = status_client.status();
    if (!text) return std::nullopt;
    return obs::StatusSnapshot::parse(*text);
  };

  auto make_argv = [&](std::size_t k) {
    std::vector<std::string> argv;
    argv.push_back(options.exec_path);
    argv.insert(argv.end(), options.worker_args.begin(),
                options.worker_args.end());
    argv.push_back("--worker-slot");
    argv.push_back(strfmt("%zu/%zu", k, slots));
    argv.push_back("--lease-server");
    argv.push_back(server);
    if (options.resume) argv.push_back("--resume");
    return argv;
  };

  std::vector<SlotProc> procs(slots);

  auto spawn_slot = [&](std::size_t k) {
    procs[k].pid = spawn_one(make_argv(k));
    procs[k].spawned = Clock::now();
    procs[k].kill_sent = false;
    obs::instant("shard", "worker.spawn", "slot",
                 static_cast<std::int64_t>(k), "restarts",
                 static_cast<std::int64_t>(procs[k].restarts));
    ORACLE_LOG_INFO(strfmt("worker slot %zu spawned (pid %d, leases from %s)",
                           k, static_cast<int>(procs[k].pid),
                           server.c_str()));
  };

  auto kill_all_live = [&] {
    for (auto& proc : procs) {
      if (proc.pid <= 0) continue;
      ::kill(proc.pid, SIGKILL);
      int status = 0;
      ::waitpid(proc.pid, &status, 0);
      proc.pid = -1;
    }
  };

  // The prime suspect for a worker death is the job at its slot's
  // committed frontier — the first one a respawn would retry. Dying
  // max_restarts times (never fewer than twice: one death is coincidence,
  // not conviction) on the same job convicts the job, not the slot: it is
  // quarantined — durably recorded, and skipped by every worker from its
  // next lease on.
  auto convict_suspect = [&](std::size_t k) {
    if (options.max_restarts == 0) return false;
    const auto st = server_status();
    if (!st || k >= st->workers.size()) return false;
    const std::size_t frontier = st->workers[k].frontier;
    if (frontier >= st->workers[k].lease_end || frontier >= n) return false;
    const std::uint64_t h = queue.job(frontier).content_hash;
    if (quarantined.contains(h) ||
        ++suspect_deaths[h] < std::max<std::size_t>(2, options.max_restarts))
      return false;
    append_quarantine_entry(qpath, {h, frontier});
    quarantined.insert(h);
    ++report.quarantined;
    ORACLE_LOG_WARN(strfmt(
        "job %zu (hash %016llx) killed its worker %zu time(s); quarantined "
        "(re-run with --resume --retry-quarantined to retry it)",
        frontier, static_cast<unsigned long long>(h), suspect_deaths[h]));
    obs::instant("shard", "job.quarantined", "index",
                 static_cast<std::int64_t>(frontier), "slot",
                 static_cast<std::int64_t>(k));
    return true;
  };

  const auto run_start = Clock::now();
  auto last_status = run_start;

  // One consistent snapshot, atomically rewritten so a dashboard polling
  // the file never sees a torn read: job progress, per-slot leases,
  // contact ages and the expiry threshold come from the service, process
  // custody (liveness, restarts) from this supervisor.
  auto write_status = [&](const std::string& phase) {
    if (options.status_path.empty()) return;
    const auto now = Clock::now();
    const auto served = server_status();
    obs::StatusSnapshot st;
    st.phase = phase;
    st.jobs_total = n;
    st.jobs_done = phase == "done" ? n : served ? served->jobs_done : 0;
    st.elapsed_seconds =
        std::chrono::duration<double>(now - run_start).count();
    st.jobs_per_second =
        st.elapsed_seconds > 0
            ? static_cast<double>(st.jobs_done) / st.elapsed_seconds
            : 0.0;
    st.eta_seconds =
        st.jobs_per_second > 0
            ? static_cast<double>(n - st.jobs_done) / st.jobs_per_second
            : -1.0;
    st.restarts = report.restarts;
    st.quarantined = prior_quarantined + report.quarantined;
    if (served) {
      st.steals = served->steals;
      st.fenced = served->fenced;
      st.retries = served->retries;
      st.expiry_s = served->expiry_s;
    }
    for (std::size_t k = 0; k < slots; ++k) {
      obs::WorkerStatus w;
      w.slot = k;
      w.live = procs[k].pid >= 0;
      w.restarts = procs[k].restarts;
      if (served && k < served->workers.size()) {
        w.heartbeat_age_s = served->workers[k].heartbeat_age_s;
        w.lease_begin = served->workers[k].lease_begin;
        w.lease_end = served->workers[k].lease_end;
        w.frontier = served->workers[k].frontier;
      }
      st.workers.push_back(w);
    }
    obs::write_status_file(options.status_path, st);
  };

  bool failed = false;
  try {
    for (std::size_t k = 0; k < slots; ++k) spawn_slot(k);
    write_status("running");

    while (true) {
      // Reap every exited worker without blocking the poll loop.
      for (std::size_t k = 0; k < slots && !failed; ++k) {
        SlotProc& proc = procs[k];
        if (proc.pid < 0) continue;
        int status = 0;
        const pid_t r = ::waitpid(proc.pid, &status, WNOHANG);
        if (r == 0) continue;  // still running

        proc.pid = -1;
        WorkerExit we;
        we.shard = k;
        if (r < 0) {
          we.exit_code = 126;  // lost track of the child: treat as failed
        } else if (WIFEXITED(status)) {
          we.exit_code = WEXITSTATUS(status);
        } else if (WIFSIGNALED(status)) {
          we.term_signal = WTERMSIG(status);
        } else {
          we.exit_code = 126;
        }
        report.workers.push_back(we);
        obs::instant("shard", we.ok() ? "worker.drained" : "worker.died",
                     "slot", static_cast<std::int64_t>(k), "code",
                     we.term_signal != 0
                         ? static_cast<std::int64_t>(-we.term_signal)
                         : static_cast<std::int64_t>(we.exit_code));

        if (we.ok()) continue;  // the server said done
        if (we.term_signal == 0 && we.exit_code == kOrphanedExitCode) {
          // The worker lost the server past its retry budget. Its durable
          // prefix is safe; respawning would only orphan again, so note it
          // and let the completeness check decide whether the rest of the
          // fleet covered the gap.
          ORACLE_LOG_WARN(strfmt(
              "worker slot %zu orphaned (lease server unreachable); "
              "not respawning",
              k));
          ++report.orphaned;
          continue;
        }

        if (convict_suspect(k)) {
          // The poison job is out of every lease now; give the slot a
          // clean budget for whatever legitimately remains.
          proc.restarts = 0;
          ++report.restarts;
          spawn_slot(k);
        } else if (proc.restarts < options.max_restarts) {
          // Crash (or expiry SIGKILL): respawn; the re-acquired lease
          // runs under a fresh epoch and skips the slot's durable prefix.
          ORACLE_LOG_WARN(strfmt(
              "worker slot %zu died (%s %d); respawning (%zu/%zu)", k,
              we.term_signal != 0 ? "signal" : "exit code",
              we.term_signal != 0 ? we.term_signal : we.exit_code,
              proc.restarts + 1, options.max_restarts));
          ++proc.restarts;
          ++report.restarts;
          spawn_slot(k);
        } else {
          ORACLE_LOG_ERROR(strfmt(
              "worker slot %zu exhausted its restart budget (%zu); "
              "aborting (state kept for --resume)",
              k, options.max_restarts));
          failed = true;  // budget exhausted: abort, keep state for resume
        }
      }
      if (failed) break;

      const bool any_live = std::any_of(
          procs.begin(), procs.end(),
          [](const SlotProc& p) { return p.pid >= 0; });
      if (!any_live) break;

      // Stall detection is the service's expiry: a worker whose slot has
      // been silent past the threshold is wedged, and the service expired
      // its slot before this reply. Silence is counted from the spawn at
      // the earliest, so a respawn is not blamed for its predecessor.
      // SIGKILL it and let the reap path above respawn it.
      const auto served = server_status();
      if (served && served->expiry_s) {
        const auto now = Clock::now();
        for (std::size_t k = 0; k < slots && k < served->workers.size(); ++k) {
          if (procs[k].pid < 0 || procs[k].kill_sent) continue;
          const double silent = std::min(
              served->workers[k].heartbeat_age_s,
              std::chrono::duration<double>(now - procs[k].spawned).count());
          if (silent <= *served->expiry_s) continue;
          ORACLE_LOG_WARN(strfmt(
              "worker slot %zu silent %.1fs (expiry %.1fs); sending SIGKILL",
              k, silent, *served->expiry_s));
          obs::instant("shard", "worker.stale_kill", "slot",
                       static_cast<std::int64_t>(k));
          ::kill(procs[k].pid, SIGKILL);
          procs[k].kill_sent = true;
        }
      }

      if (!options.status_path.empty()) {
        const auto now = Clock::now();
        if (now - last_status >=
            std::chrono::milliseconds(
                std::max<std::uint32_t>(options.status_interval_ms, 1))) {
          last_status = now;
          write_status("running");
        }
      }

      std::this_thread::sleep_for(kSupervisorPoll);
    }
  } catch (...) {
    kill_all_live();
    throw;
  }

  if (failed) {
    // Leave every slot store in place (merge skipped) so --resume can
    // converge later; live workers must die now or they would race the
    // resume's respawns on the same stores.
    kill_all_live();
    write_status("failed");
    return report;
  }
  if (const auto st = server_status()) report.steals = st->steals;

  // Completeness gate: the server's `done` plus orphan exits are not proof
  // that every record landed on *this* host's disks. Merge only when the
  // canonical + slot stores (and the quarantine) cover the whole sweep;
  // anything short of that keeps the state for --resume.
  {
    std::unordered_set<std::uint64_t> have = quarantined;
    if (options.resume) have.merge(load_completed_hashes(options.out));
    for (std::size_t k = 0; k < slots; ++k)
      have.merge(load_completed_hashes(worker_store_path(options.out, k, slots)));
    std::size_t missing = 0;
    for (const auto& job : queue.jobs())
      if (!have.contains(job.content_hash)) ++missing;
    if (missing > 0) {
      ORACLE_LOG_ERROR(strfmt(
          "run incomplete: %zu job(s) missing from local stores (orphaned "
          "workers? wrong server?); merge skipped — re-run with --resume",
          missing));
      write_status("failed");
      return report;
    }
  }

  write_status("merging");
  {
    obs::Span merge_span("shard", "merge");
    ShardMerger merger;
    if (options.resume) merger.add_store(options.out);
    for (std::size_t k = 0; k < slots; ++k)
      merger.add_store(worker_store_path(options.out, k, slots));
    report.merge = merger.merge_to(options.out);
    report.merged = true;
  }
  ORACLE_LOG_INFO(strfmt(
      "merged %zu record(s) into %s (%zu duplicate(s) dropped)",
      report.merge.records, options.out.c_str(),
      report.merge.duplicates_dropped));
  write_status("done");

  if (!options.keep_shard_stores) {
    for (std::size_t k = 0; k < slots; ++k)
      util::remove_file(worker_store_path(options.out, k, slots));
  }
  return report;
}

#endif

}  // namespace oracle::exp
