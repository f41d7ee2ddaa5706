// Deterministic fault-injection tests for the sweep supervisor
// (exp::run_sharded_processes over its in-process lease service): worker
// death by SIGKILL and _exit(1), stall detection via the lease service's
// expiry, auto-restart, steals by idle workers, restart-budget
// exhaustion, poison-job quarantine, and --resume convergence — all
// in-process under ctest instead of only in the CI kill+resume smoke
// script.
//
// The binary is its own worker: a custom main() dispatches to
// worker_main() when argv[1] == "--shard-worker", so the supervisor under
// test self-execs *this* test executable. Faults are injected through
// exp::ShardTestHooks, parsed from the worker argv and targeted at one
// slot (`--fault-slot`), with a one-shot marker file so a respawned worker
// runs clean and the run converges.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/sweep.hpp"
#include "exp/exp.hpp"
#include "obs/status.hpp"
#include "obs/trace.hpp"
#include "util/error.hpp"
#include "util/file_util.hpp"

#if !defined(_WIN32)

#include <unistd.h>

namespace oracle {
namespace {

std::string g_self;  ///< argv[0], for worker self-exec

core::ExperimentConfig small_config() {
  core::ExperimentConfig cfg;
  cfg.topology = "grid:5x5";
  cfg.strategy = "cwn:radius=4,horizon=1";
  cfg.workload = "fib:9";
  cfg.machine.seed = 1;
  return cfg;
}

/// The fixed sweep both the tests and the self-exec'd workers rebuild:
/// 3 (topology) x 3 (strategy) x 2 (seed) = 18 fast jobs.
std::vector<core::ExperimentConfig> fault_sweep() {
  return core::SweepBuilder(small_config())
      .topologies({"grid:5x5", "grid:6x6", "dlm:5:5x5"})
      .strategies({"cwn:radius=4,horizon=1", "gm:hwm=2,lwm=1", "random"})
      .seeds({1, 2})
      .build();
}

/// A slower sweep for the adaptive-expiry tests: 6 jobs of ~100ms+ each,
/// so the lease service's adaptive timeout learns a real job pace.
std::vector<core::ExperimentConfig> slow_sweep() {
  auto cfg = small_config();
  cfg.workload = "fib:24";
  cfg.topology = "grid:6x6";
  return core::SweepBuilder(cfg)
      .strategies({"cwn:radius=4,horizon=1", "random"})
      .seeds({1, 2, 3})
      .build();
}

/// Six 0.5-1.2s jobs for the tail-whale test: slow enough that the adaptive
/// timeout's p99 term, not its floor, decides whether a whale survives.
std::vector<core::ExperimentConfig> paced_sweep() {
  auto cfg = small_config();
  cfg.workload = "fib:26";
  cfg.topology = "grid:6x6";
  return core::SweepBuilder(cfg)
      .strategies({"cwn:radius=4,horizon=1", "random"})
      .seeds({1, 2, 3})
      .build();
}

/// The sweep a test runs and its self-exec'd workers rebuild, by name.
std::vector<core::ExperimentConfig> named_sweep(const std::string& name) {
  if (name == "slow") return slow_sweep();
  if (name == "paced") return paced_sweep();
  return fault_sweep();
}

std::string temp_path(const std::string& name) {
  return testing::TempDir() + "oracle_faults_" + name;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

/// Serial golden store, produced once per process and shared by every
/// test. The pid in the name matters: ctest runs each TEST as its own
/// process, concurrently — a shared path would be remove()d and
/// rewritten under a sibling process mid-comparison.
const std::string& serial_store() {
  static std::string path;
  static std::once_flag once;
  std::call_once(once, [] {
    path = temp_path("serial_golden." + std::to_string(::getpid()) +
                     ".jsonl");
    std::remove(path.c_str());
    exp::BatchOptions opt;
    opt.jsonl_path = path;
    opt.collect = false;
    const auto outcome = exp::run_batch(fault_sweep(), opt);
    ORACLE_REQUIRE(outcome.report.ok(), "serial golden run failed");
  });
  return path;
}

/// Serial golden for the slow sweep (adaptive-expiry tests only).
const std::string& slow_serial_store() {
  static std::string path;
  static std::once_flag once;
  std::call_once(once, [] {
    path = temp_path("slow_serial_golden." + std::to_string(::getpid()) +
                     ".jsonl");
    std::remove(path.c_str());
    exp::BatchOptions opt;
    opt.jsonl_path = path;
    opt.collect = false;
    const auto outcome = exp::run_batch(slow_sweep(), opt);
    ORACLE_REQUIRE(outcome.report.ok(), "slow serial golden run failed");
  });
  return path;
}

void remove_steal_files(const std::string& canonical, std::size_t slots) {
  std::remove(canonical.c_str());
  std::remove((canonical + ".marker").c_str());
  for (std::size_t k = 0; k < slots; ++k)
    std::remove(exp::worker_store_path(canonical, k, slots).c_str());
}

/// Launch a supervised run over fault_sweep(), with optional fault flags
/// replayed onto every worker's command line (the worker applies them
/// only to --fault-slot's slot).
exp::ShardRunReport run_steal(const std::string& canonical,
                              std::size_t workers,
                              const std::vector<std::string>& fault_flags = {},
                              std::uint32_t heartbeat_ms = 0,
                              std::size_t max_restarts = 2,
                              bool resume = false,
                              std::size_t min_steal_jobs = 1,
                              const std::string& status_path = {},
                              bool retry_quarantined = false,
                              const std::string& sweep = {}) {
  exp::ShardRunOptions sopt;
  sopt.workers = workers;
  sopt.out = canonical;
  sopt.heartbeat_ms = heartbeat_ms;
  sopt.max_restarts = max_restarts;
  sopt.resume = resume;
  sopt.retry_quarantined = retry_quarantined;
  sopt.min_steal_jobs = min_steal_jobs;
  sopt.status_path = status_path;
  sopt.status_interval_ms = 25;  // many rewrites for the atomicity poller
  sopt.exec_path = exp::self_exec_path(g_self);
  sopt.worker_args = {"--shard-worker", "--out", canonical};
  if (!sweep.empty()) {
    sopt.worker_args.push_back("--sweep");
    sopt.worker_args.push_back(sweep);
  }
  sopt.worker_args.insert(sopt.worker_args.end(), fault_flags.begin(),
                          fault_flags.end());
  return exp::run_sharded_processes(named_sweep(sweep), sopt);
}

// ------------------------------------------------------------ fault tests --

TEST(StealSupervisor, MatchesSerialByteIdenticallyIncludingMoreWorkersThanJobs) {
  const auto canonical = temp_path("clean.jsonl");
  for (const std::size_t workers : {3u, 25u}) {  // 25 > 18 jobs: clamped
    remove_steal_files(canonical, 25);
    const auto report = run_steal(canonical, workers);
    EXPECT_TRUE(report.ok()) << report.summary();
    EXPECT_EQ(report.planned_jobs, 18u);
    EXPECT_EQ(report.merge.records, 18u);
    EXPECT_EQ(read_file(serial_store()), read_file(canonical));
    EXPECT_FALSE(util::file_exists(canonical + ".ckpt"));
  }
  remove_steal_files(canonical, 25);
}

TEST(StealSupervisor, SigkilledWorkerIsAutoRestartedAndConverges) {
  const auto canonical = temp_path("sigkill.jsonl");
  remove_steal_files(canonical, 3);
  const auto report = run_steal(
      canonical, 3,
      {"--fault-slot", "1", "--die-after", "2", "--kill", "--marker",
       canonical + ".marker"});
  EXPECT_TRUE(report.ok()) << report.summary();
  EXPECT_EQ(report.restarts, 1u);
  bool saw_sigkill = false;
  for (const auto& w : report.workers)
    if (w.shard == 1 && w.term_signal == SIGKILL) saw_sigkill = true;
  EXPECT_TRUE(saw_sigkill);
  EXPECT_EQ(read_file(serial_store()), read_file(canonical));
  remove_steal_files(canonical, 3);
}

TEST(StealSupervisor, ExitFaultIsAutoRestartedAndConverges) {
  const auto canonical = temp_path("exit1.jsonl");
  remove_steal_files(canonical, 3);
  // Stealing is off so slot 0 still holds its fourth job when it dies.
  const auto report = run_steal(
      canonical, 3,
      {"--fault-slot", "0", "--die-after", "3", "--marker",
       canonical + ".marker"},
      /*heartbeat_ms=*/0, /*max_restarts=*/2, /*resume=*/false,
      /*min_steal_jobs=*/1000);
  EXPECT_TRUE(report.ok()) << report.summary();
  EXPECT_EQ(report.restarts, 1u);
  bool saw_exit1 = false;
  for (const auto& w : report.workers)
    if (w.shard == 0 && w.term_signal == 0 && w.exit_code == 1)
      saw_exit1 = true;
  EXPECT_TRUE(saw_exit1);
  EXPECT_EQ(read_file(serial_store()), read_file(canonical));
  remove_steal_files(canonical, 3);
}

TEST(StealSupervisor, StalledWorkerIsReapedByHeartbeatAndConverges) {
  const auto canonical = temp_path("stall.jsonl");
  remove_steal_files(canonical, 3);
  // Slot 2 wedges for 60s after its first job; the 250ms expiry must get
  // it SIGKILLed long before that and the respawn finishes the lease.
  const auto report = run_steal(
      canonical, 3,
      {"--fault-slot", "2", "--stall-after", "1", "--stall-ms", "60000",
       "--marker", canonical + ".marker"},
      /*heartbeat_ms=*/250);
  EXPECT_TRUE(report.ok()) << report.summary();
  EXPECT_GE(report.restarts, 1u);
  bool saw_reap = false;
  for (const auto& w : report.workers)
    if (w.shard == 2 && w.term_signal == SIGKILL) saw_reap = true;
  EXPECT_TRUE(saw_reap);
  EXPECT_EQ(read_file(serial_store()), read_file(canonical));
  remove_steal_files(canonical, 3);
}

TEST(StealSupervisor, ServiceExpiresAStalledSlotBeforeItIsKilled) {
  const auto canonical = temp_path("one_clock.jsonl");
  const auto trace = canonical + ".trace";
  remove_steal_files(canonical, 3);
  // The supervisor and its in-process lease service both record into this
  // process's tracer. With a 250ms expiry the service must expire the
  // wedged slot 2 first; the supervisor only reads that verdict.
  obs::Tracer::enable(0, "supervisor");
  const auto report = run_steal(
      canonical, 3,
      {"--fault-slot", "2", "--stall-after", "1", "--stall-ms", "60000",
       "--marker", canonical + ".marker"},
      /*heartbeat_ms=*/250);
  obs::Tracer::disable();
  obs::Tracer::write_event_lines(trace, /*append=*/false);
  EXPECT_TRUE(report.ok()) << report.summary();

  std::optional<double> expired, killed;
  std::ifstream in(trace);
  std::string line;
  while (std::getline(in, line)) {
    const auto ev = obs::parse_event_line(line);
    if (!ev || line.find("\"slot\":2") == std::string::npos) continue;
    std::optional<double>* first =
        ev->name == "expire"              ? &expired
        : ev->name == "worker.stale_kill" ? &killed
                                          : nullptr;
    if (first && (!*first || ev->ts_us < **first)) *first = ev->ts_us;
  }
  ASSERT_TRUE(killed.has_value()) << "the wedged worker was never reaped";
  ASSERT_TRUE(expired.has_value()) << "killed before the service expired it";
  EXPECT_LT(*expired, *killed);
  std::remove(trace.c_str());
  remove_steal_files(canonical, 3);
}

TEST(StealSupervisor, SlowWorkersTailIsStolenByIdleWorkers) {
  const auto canonical = temp_path("steal.jsonl");
  remove_steal_files(canonical, 3);
  // Slot 0 stalls 1.5s before its very first job (inside the 3s adaptive
  // expiry floor, so it is never killed). The other two workers drain
  // their own leases in milliseconds and must steal slot 0's unclaimed
  // tail instead of idling.
  const auto report = run_steal(
      canonical, 3,
      {"--fault-slot", "0", "--stall-after", "0", "--stall-ms", "1500",
       "--marker", canonical + ".marker"});
  EXPECT_TRUE(report.ok()) << report.summary();
  EXPECT_GE(report.steals, 1u);
  EXPECT_EQ(report.restarts, 0u);
  EXPECT_EQ(read_file(serial_store()), read_file(canonical));
  remove_steal_files(canonical, 3);
}

TEST(StealSupervisor, ExhaustedRestartBudgetAbortsThenResumeConverges) {
  const auto canonical = temp_path("budget.jsonl");
  remove_steal_files(canonical, 3);
  // No marker: the fault re-fires on every respawn of slot 1. Stealing is
  // disabled (min_steal_jobs > sweep size) — otherwise the surviving
  // workers would legitimately rescue the dying slot's lease and the run
  // would converge anyway — so a budget of 1 restart cannot finish the
  // lease and the run must abort with the merge skipped and every slot
  // store preserved.
  const auto failed = run_steal(canonical, 3,
                                {"--fault-slot", "1", "--die-after", "2"},
                                /*heartbeat_ms=*/0, /*max_restarts=*/1,
                                /*resume=*/false, /*min_steal_jobs=*/1000);
  EXPECT_FALSE(failed.ok());
  EXPECT_FALSE(failed.merged);
  EXPECT_EQ(failed.restarts, 1u);
  EXPECT_FALSE(util::file_exists(canonical));

  // The fault-free resume re-runs only what is missing and converges to
  // the serial bytes.
  const auto resumed = run_steal(canonical, 3, {}, 0, 2, /*resume=*/true);
  EXPECT_TRUE(resumed.ok()) << resumed.summary();
  EXPECT_EQ(read_file(serial_store()), read_file(canonical));
  remove_steal_files(canonical, 3);
}

TEST(StealSupervisor, StatusFileIsAlwaysACompleteSnapshot) {
  const auto canonical = temp_path("status.jsonl");
  const auto status = canonical + ".status.json";
  remove_steal_files(canonical, 3);
  std::remove(status.c_str());

  // Hammer-read the status file while the supervisor rewrites it every
  // 25ms *and* absorbs a SIGKILLed worker underneath: the tmp+rename
  // contract means every non-empty read must parse as a full snapshot.
  std::atomic<bool> done{false};
  std::size_t reads = 0;
  std::size_t torn = 0;
  std::string first_torn;
  std::thread poller([&] {
    while (!done.load(std::memory_order_relaxed)) {
      const std::string text = read_file(status);
      if (!text.empty()) {
        ++reads;
        if (!obs::StatusSnapshot::parse(text)) {
          if (torn++ == 0) first_torn = text;
        }
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
  const auto report = run_steal(
      canonical, 3,
      {"--fault-slot", "1", "--die-after", "2", "--kill", "--marker",
       canonical + ".marker"},
      /*heartbeat_ms=*/0, /*max_restarts=*/2, /*resume=*/false,
      /*min_steal_jobs=*/1, status);
  done.store(true, std::memory_order_relaxed);
  poller.join();

  EXPECT_TRUE(report.ok()) << report.summary();
  EXPECT_GT(reads, 0u);
  EXPECT_EQ(torn, 0u) << "first torn status read: " << first_torn;

  const auto final_status = obs::read_status_file(status);
  ASSERT_TRUE(final_status.has_value());
  EXPECT_EQ(final_status->phase, "done");
  EXPECT_EQ(final_status->jobs_total, 18u);
  EXPECT_EQ(final_status->jobs_done, 18u);
  EXPECT_GE(final_status->restarts, 1u);
  EXPECT_EQ(final_status->workers.size(), 3u);
  EXPECT_EQ(read_file(serial_store()), read_file(canonical));
  std::remove(status.c_str());
  remove_steal_files(canonical, 3);
}

TEST(StealSupervisor, PoisonJobIsQuarantinedThenRetryQuarantinedConverges) {
  const auto canonical = temp_path("poison.jsonl");
  const auto qpath = exp::quarantine_path(canonical);
  remove_steal_files(canonical, 3);
  std::remove(qpath.c_str());

  // Job 7 SIGKILLs whichever worker runs it, every time (no marker, no
  // slot guard — steals move it but never save it). After max_restarts
  // deaths on the same content hash the job must be quarantined: recorded
  // in the .quarantine file, skipped by every worker, and the remaining
  // 17 jobs still merge.
  const auto report =
      run_steal(canonical, 3, {"--poison-index", "7"});
  EXPECT_TRUE(report.ok()) << report.summary();
  EXPECT_EQ(report.quarantined, 1u);
  EXPECT_EQ(report.merge.records, 17u);
  const auto entries = exp::read_quarantine_file(qpath);
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_EQ(entries[0].job_index, 7u);

  // --resume --retry-quarantined forgets the verdict; the fault-free
  // re-run executes the poison job and converges to the serial bytes.
  const auto resumed =
      run_steal(canonical, 3, {}, /*heartbeat_ms=*/0, /*max_restarts=*/2,
                /*resume=*/true, /*min_steal_jobs=*/1, /*status_path=*/{},
                /*retry_quarantined=*/true);
  EXPECT_TRUE(resumed.ok()) << resumed.summary();
  EXPECT_EQ(resumed.quarantined, 0u);
  EXPECT_EQ(resumed.merge.records, 18u);
  EXPECT_EQ(read_file(serial_store()), read_file(canonical));
  EXPECT_TRUE(exp::read_quarantine_file(qpath).empty());
  remove_steal_files(canonical, 3);
  std::remove(qpath.c_str());
}

TEST(StealSupervisor, AdaptiveHeartbeatReapsWedgedWorkerWithoutTuning) {
  const auto canonical = temp_path("adaptive.jsonl");
  remove_steal_files(canonical, 3);
  // No --heartbeat-ms anywhere: the lease service learns its expiry from
  // the observed job pace (~100ms jobs → the adaptive floor, a few
  // seconds) and the 60s wedge must be reaped long before it resolves.
  const auto report = run_steal(
      canonical, 3,
      {"--fault-slot", "2", "--stall-after", "1", "--stall-ms", "60000",
       "--marker", canonical + ".marker"},
      /*heartbeat_ms=*/0, /*max_restarts=*/2, /*resume=*/false,
      /*min_steal_jobs=*/1, /*status_path=*/{},
      /*retry_quarantined=*/false, /*sweep=*/"slow");
  EXPECT_TRUE(report.ok()) << report.summary();
  EXPECT_GE(report.restarts, 1u);
  bool saw_reap = false;
  for (const auto& w : report.workers)
    if (w.shard == 2 && w.term_signal == SIGKILL) saw_reap = true;
  EXPECT_TRUE(saw_reap);
  EXPECT_EQ(read_file(slow_serial_store()), read_file(canonical));
  remove_steal_files(canonical, 3);
}

TEST(StealSupervisor, AdaptiveHeartbeatNeverReapsAHealthySlowWhale) {
  const auto canonical = temp_path("whale.jsonl");
  remove_steal_files(canonical, 3);
  // A 1.2s "whale" job: ~10x slower than its siblings but well inside
  // the adaptive floor. It must be left alone — zero restarts — and the
  // run still converges.
  const auto report = run_steal(
      canonical, 3,
      {"--fault-slot", "1", "--stall-after", "1", "--stall-ms", "1200",
       "--marker", canonical + ".marker"},
      /*heartbeat_ms=*/0, /*max_restarts=*/2, /*resume=*/false,
      /*min_steal_jobs=*/1, /*status_path=*/{},
      /*retry_quarantined=*/false, /*sweep=*/"slow");
  EXPECT_TRUE(report.ok()) << report.summary();
  EXPECT_EQ(report.restarts, 0u);
  for (const auto& w : report.workers) EXPECT_NE(w.term_signal, SIGKILL);
  EXPECT_EQ(read_file(slow_serial_store()), read_file(canonical));
  remove_steal_files(canonical, 3);
}

TEST(StealSupervisor, AdaptiveHeartbeatSparesATailWhaleWhileTheOthersIdle) {
  const auto canonical = temp_path("tail_whale.jsonl");
  remove_steal_files(canonical, 6);
  // One 0.5-1.2s job per worker. Slot 5 stalls 3.3s before its job,
  // every time it runs (no marker), so it finishes alone while the other
  // five poll the lease service for work. Its ~4s of silence is past the
  // 3s floor and twice every other job: only the p99 term (8 x ~1.2s)
  // spares it, and only while idle polls never count as job walls.
  const auto report = run_steal(
      canonical, 6,
      {"--fault-slot", "5", "--stall-after", "0", "--stall-ms", "3300"},
      /*heartbeat_ms=*/0, /*max_restarts=*/2, /*resume=*/false,
      /*min_steal_jobs=*/1, /*status_path=*/{},
      /*retry_quarantined=*/false, /*sweep=*/"paced");
  EXPECT_TRUE(report.ok()) << report.summary();
  EXPECT_EQ(report.restarts, 0u);
  EXPECT_EQ(report.quarantined, 0u);
  EXPECT_EQ(report.merge.records, 6u);
  for (const auto& w : report.workers) EXPECT_NE(w.term_signal, SIGKILL);
  remove_steal_files(canonical, 6);
  std::remove(exp::quarantine_path(canonical).c_str());
}

TEST(StealSupervisor, MultiThreadedWorkersMatchSerialAndLeaveNoLeaseFiles) {
  const auto canonical = temp_path("threads.jsonl");
  remove_steal_files(canonical, 2);
  // Two workers with two executor threads each: the frontier is committed
  // once per commit group, not per job, and the merge is still the serial
  // bytes. The in-process lease service leaves no lease files or journal.
  const auto report = run_steal(canonical, 2, {"--threads", "2"});
  EXPECT_TRUE(report.ok()) << report.summary();
  EXPECT_EQ(report.merge.records, 18u);
  EXPECT_EQ(read_file(serial_store()), read_file(canonical));
  const auto dir = canonical.substr(0, canonical.rfind('/') + 1);
  const auto base = canonical.substr(dir.size());
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    const auto name = entry.path().filename().string();
    if (name.rfind(base, 0) != 0) continue;
    EXPECT_EQ(name.find(".lease"), std::string::npos) << name;
    EXPECT_EQ(name.find("journal"), std::string::npos) << name;
  }
  remove_steal_files(canonical, 2);
}

// ------------------------------------------------------------ worker side --

/// The self-exec'd worker: rebuild the sweep, apply targeted fault hooks,
/// and run the leases the supervisor's lease service grants this slot.
int worker_main(int argc, char** argv) {
  std::string out, marker, sweep_name, lease_server;
  std::optional<exp::ShardSpec> slot;
  bool resume = false;
  std::size_t threads = 1;
  std::size_t fault_slot = exp::ShardTestHooks::kOff;
  std::size_t poison_index = exp::ShardTestHooks::kOff;
  exp::ShardTestHooks hooks;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&] { return std::string(i + 1 < argc ? argv[++i] : "0"); };
    if (arg == "--out") {
      out = value();
    } else if (arg == "--worker-slot") {
      slot = exp::ShardSpec::parse(value());
    } else if (arg == "--lease-server") {
      lease_server = value();
    } else if (arg == "--resume") {
      resume = true;
    } else if (arg == "--threads") {
      threads = std::stoul(value());
    } else if (arg == "--fault-slot") {
      fault_slot = std::stoul(value());
    } else if (arg == "--die-after") {
      hooks.die_after_n_jobs = std::stoul(value());
    } else if (arg == "--kill") {
      hooks.die_with_sigkill = true;
    } else if (arg == "--stall-after") {
      hooks.stall_after_n_jobs = std::stoul(value());
    } else if (arg == "--stall-ms") {
      hooks.stall_ms = static_cast<std::uint32_t>(std::stoul(value()));
    } else if (arg == "--poison-index") {
      poison_index = std::stoul(value());
    } else if (arg == "--sweep") {
      sweep_name = value();
    } else if (arg == "--marker") {
      marker = value();
    }
  }
  if (out.empty() || !slot || lease_server.empty()) return 2;

  exp::LeaseWorkerOptions wopt;
  wopt.canonical_out = out;
  wopt.slot = slot->index;
  wopt.slot_count = slot->count;
  wopt.merge_resume = resume;
  wopt.threads = threads;
  wopt.lease_server = lease_server;
  if (slot->index == fault_slot) {
    wopt.hooks = hooks;
    wopt.hooks.once_marker = marker;
  }
  if (poison_index != exp::ShardTestHooks::kOff) {
    // A poison job kills *whichever* worker picks it up, every time — the
    // quarantine scenario — so it is applied to every slot, unguarded.
    wopt.hooks.die_on_job_index = poison_index;
    wopt.hooks.die_with_sigkill = true;
  }
  const auto sweep = named_sweep(sweep_name);
  const auto report = exp::run_lease_client_worker(sweep, wopt);
  if (report.orphaned) return exp::kOrphanedExitCode;
  return report.batch.ok() ? 0 : 1;
}

}  // namespace
}  // namespace oracle

int main(int argc, char** argv) {
  if (argc > 1 && std::string(argv[1]) == "--shard-worker")
    return oracle::worker_main(argc, argv);
  oracle::g_self = argv[0];
  ::testing::InitGoogleTest(&argc, argv);
  return RUN_ALL_TESTS();
}

#else  // _WIN32: the supervisor is POSIX-only; keep the test binary valid.

int main(int argc, char** argv) {
  ::testing::InitGoogleTest(&argc, argv);
  return RUN_ALL_TESTS();
}

#endif
