#include "exp/supervisor.hpp"

#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <csignal>
#include <cstdio>
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
#include "util/error.hpp"
#include "util/file_util.hpp"
#include "util/log.hpp"
#include "util/net.hpp"
#include "util/string_util.hpp"

namespace oracle::exp {

// ------------------------------------------------------------ StoreMerger --

void StoreMerger::add_store(const std::string& path) {
  std::ifstream in(path);
  if (!in) return;  // a slot that never ran a job never creates its store
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
    hashes_.insert(rec->content_hash);
  }
}

MergeReport StoreMerger::merge_to(const std::string& canonical_path) {
  // Job order is the serial engine's commit order, so sorting by job index
  // reproduces a serial run byte-for-byte (records themselves are written
  // deterministically by the sinks). stable_sort keeps first-seen order
  // for duplicate hashes, which the dedup below then collapses: the first
  // record of a hash takes it out of hashes_, later ones find it gone.
  std::stable_sort(records_.begin(), records_.end(),
                   [](const Record& a, const Record& b) {
                     return a.job_index < b.job_index;
                   });

  const std::string tmp = canonical_path + ".merge.tmp";
  {
    std::ofstream store(tmp, std::ios::out | std::ios::trunc);
    if (!store)
      throw SimulationError("cannot open '" + tmp + "' for writing");
    for (const auto& rec : records_) {
      if (hashes_.erase(rec.content_hash) == 0) {
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

// -------------------------------------------------------------- supervisor --

bool SupervisorReport::ok() const noexcept {
  // The merge is the completion criterion: failed exits of workers the
  // supervisor restarted do not count against a run that converged.
  return merged;
}

std::string SupervisorReport::summary() const {
  std::size_t failed = 0;
  for (const auto& w : workers)
    if (!w.ok()) ++failed;
  std::string s = strfmt("%zu jobs over %zu worker(s)", planned_jobs, slots);
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
    throw SimulationError("fork failed for a worker process");
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

SupervisorReport run_supervisor(
    const std::vector<core::ExperimentConfig>& configs,
    const SupervisorOptions& options) {
  using Clock = std::chrono::steady_clock;
  ORACLE_REQUIRE(!options.out.empty(),
                 "multi-process runs need a canonical --out store");
  ORACLE_REQUIRE(options.workers >= 1, "--workers must be >= 1");
  ORACLE_REQUIRE(!options.exec_path.empty(),
                 "multi-process runs need the worker executable path");
  ORACLE_REQUIRE(!configs.empty(), "multi-process run over an empty sweep");
  ORACLE_REQUIRE(options.lease_server.empty() || options.expiry_ms == 0,
                 "--heartbeat-ms sets the in-process lease service's expiry; "
                 "a remote --lease-server owns its own");

  JobQueue queue(configs, options.master_seed);
  const std::size_t n = queue.size();

  SupervisorReport report;
  report.planned_jobs = n;
  // One worker per job at most: a slot without a lease buys nothing but a
  // process spawn.
  const std::size_t slots =
      std::max<std::size_t>(1, std::min(options.workers, n));
  report.slots = slots;

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
    lopt.expiry_ms = options.expiry_ms;
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
  // the file never sees a torn read. It is the lease service's `served`
  // snapshot (job progress, steals, per-slot leases, contact ages, the
  // expiry threshold) with this supervisor's custody laid over it: phase,
  // elapsed time, restarts, quarantine, and each slot's liveness and
  // respawns. A silent service leaves the sweep size and the custody.
  auto write_status = [&](const std::string& phase,
                          const std::optional<obs::StatusSnapshot>& served) {
    if (options.status_path.empty()) return;
    obs::StatusSnapshot st;
    if (served)
      st = *served;
    else
      st.jobs_total = n;
    st.phase = phase;
    st.elapsed_seconds =
        std::chrono::duration<double>(Clock::now() - run_start).count();
    if (phase == "done") st.jobs_done = n;
    st.restarts = report.restarts;
    st.quarantined = prior_quarantined + report.quarantined;
    st.workers.resize(slots);
    for (std::size_t k = 0; k < slots; ++k) {
      st.workers[k].slot = k;
      st.workers[k].live = procs[k].pid >= 0;
      st.workers[k].restarts = procs[k].restarts;
    }
    obs::write_status_file(options.status_path, st);
  };
  // Writes outside a poll pass ask the service afresh.
  auto write_fresh_status = [&](const std::string& phase) {
    if (!options.status_path.empty()) write_status(phase, server_status());
  };

  bool failed = false;
  try {
    for (std::size_t k = 0; k < slots; ++k) spawn_slot(k);
    write_fresh_status("running");

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
        we.slot = k;
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
        if (we.term_signal == 0 && we.exit_code == kUsageExitCode) {
          ORACLE_LOG_ERROR(strfmt(
              "worker slot %zu rejected its configuration (exit code %d); "
              "aborting (state kept for --resume)",
              k, we.exit_code));
          failed = true;
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
      // SIGKILL it and let the reap path above respawn it. This pass's
      // status write shares the reply.
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

      if (const auto now = Clock::now();
          now - last_status >= obs::kStatusInterval) {
        last_status = now;
        write_status("running", served);
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
    write_fresh_status("failed");
    return report;
  }
  if (const auto st = server_status()) report.steals = st->steals;

  {
    obs::Span merge_span("shard", "merge");
    StoreMerger merger;
    if (options.resume) merger.add_store(options.out);
    for (std::size_t k = 0; k < slots; ++k)
      merger.add_store(worker_store_path(options.out, k, slots));

    // Completeness gate: the server's `done` plus orphan exits are not
    // proof that every record landed on *this* host's disks. Merge only
    // when the records just read (and the quarantine) cover the whole
    // sweep; anything short of that keeps the state for --resume.
    std::size_t missing = 0;
    for (const auto& job : queue.jobs())
      if (!merger.holds(job.content_hash) &&
          !quarantined.contains(job.content_hash))
        ++missing;
    if (missing > 0) {
      ORACLE_LOG_ERROR(strfmt(
          "run incomplete: %zu job(s) missing from local stores (orphaned "
          "workers? wrong server?); merge skipped — re-run with --resume",
          missing));
      write_fresh_status("failed");
      return report;
    }

    write_fresh_status("merging");
    report.merge = merger.merge_to(options.out);
    report.merged = true;
  }
  ORACLE_LOG_INFO(strfmt(
      "merged %zu record(s) into %s (%zu duplicate(s) dropped)",
      report.merge.records, options.out.c_str(),
      report.merge.duplicates_dropped));
  write_fresh_status("done");

  if (!options.keep_slot_stores) {
    for (std::size_t k = 0; k < slots; ++k)
      util::remove_file(worker_store_path(options.out, k, slots));
  }
  return report;
}

}  // namespace oracle::exp
