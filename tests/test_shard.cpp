// Crash-safe distributed sweeps (src/exp/supervisor.*, lease_worker.*):
// the merge protocol's byte-identical guarantee vs a serial run over
// contiguous job-range slices, resume convergence after a simulated SIGKILL, self-exec path
// resolution, the quarantine file, the supervisor's setup checks and run
// summary, in-process lease-client workers (empty leases, several
// executor threads, an unreachable server), and property tests for the
// lease bookkeeping (partition invariants under random steal sequences,
// JobQueue::slice vs a reference model, adaptive timeouts).

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/sweep.hpp"
#include "exp/exp.hpp"
#include "util/error.hpp"
#include "util/file_util.hpp"

namespace oracle {
namespace {

core::ExperimentConfig small_config(std::uint64_t seed = 1) {
  core::ExperimentConfig cfg;
  cfg.topology = "grid:5x5";
  cfg.strategy = "cwn:radius=4,horizon=1";
  cfg.workload = "fib:9";
  cfg.machine.seed = seed;
  return cfg;
}

/// A fast 3 (topology) x 3 (strategy) x 2 (seed) sweep = 18 jobs.
std::vector<core::ExperimentConfig> small_sweep() {
  return core::SweepBuilder(small_config())
      .topologies({"grid:5x5", "grid:6x6", "dlm:5:5x5"})
      .strategies({"cwn:radius=4,horizon=1", "gm:hwm=2,lwm=1", "random"})
      .seeds({1, 2})
      .build();
}

std::string temp_path(const std::string& name) {
  return testing::TempDir() + "oracle_shard_" + name;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

/// Keep only the first `n` lines of `path` (simulates the clean-prefix
/// state a SIGKILLed worker leaves behind).
void keep_lines(const std::string& path, std::size_t n) {
  std::ifstream in(path);
  std::string line, kept;
  for (std::size_t i = 0; i < n && std::getline(in, line); ++i)
    kept += line + '\n';
  in.close();
  std::ofstream out(path, std::ios::trunc | std::ios::binary);
  out << kept;
}

void remove_run_files(const std::string& canonical, std::size_t slices) {
  std::remove(canonical.c_str());
  for (std::size_t i = 0; i < slices; ++i) {
    const auto store = exp::worker_store_path(canonical, i, slices);
    std::remove(store.c_str());
  }
}

/// Slice `index` of `count`: the lease table's initial contiguous range.
exp::Lease slice(const std::vector<core::ExperimentConfig>& configs,
                 std::size_t index, std::size_t count) {
  return exp::LeaseTable(configs.size(), count).lease(index);
}

/// Run slice `index` of `count` in-process into its slot store, as a lease
/// worker whose lease was never stolen from would (resume skips what the
/// slot store already holds).
exp::BatchOutcome run_slice(const std::vector<core::ExperimentConfig>& configs,
                            const std::string& canonical, std::size_t index,
                            std::size_t count, bool resume = false) {
  exp::BatchOptions opt;
  opt.jsonl_path = exp::worker_store_path(canonical, index, count);
  opt.resume = resume;
  opt.collect = false;
  const exp::Lease lease = slice(configs, index, count);
  exp::JobQueue queue = exp::JobQueue(configs).slice(lease.begin, lease.end);
  const std::size_t skipped =
      resume ? queue.skip_completed(exp::load_completed_hashes(opt.jsonl_path))
             : 0;
  auto outcome = exp::run_batch(queue, opt);
  outcome.report.skipped = skipped;
  return outcome;
}

// ------------------------------------------------------------- WorkerSlot --

TEST(WorkerSlot, ParsesValidAndRejectsMalformed) {
  const auto s = exp::WorkerSlot::parse("2/4");
  ASSERT_TRUE(s.has_value());
  EXPECT_EQ(s->index, 2u);
  EXPECT_EQ(s->count, 4u);
  EXPECT_TRUE(exp::WorkerSlot::parse("0/1").has_value());

  for (const char* bad : {"", "3", "4/4", "5/4", "/4", "2/", "a/b", "-1/4",
                          "1/-3", "-1/-3", "1/0", "1/4/2"})
    EXPECT_FALSE(exp::WorkerSlot::parse(bad).has_value()) << bad;
}

// ------------------------------------------------ merge = serial, bytewise --

TEST(StoreMerger, MergedStoreIsByteIdenticalToSerialRun) {
  const auto configs = small_sweep();
  const auto serial = temp_path("serial.jsonl");
  const auto canonical = temp_path("merged.jsonl");
  remove_run_files(canonical, 3);

  exp::BatchOptions sopt;
  sopt.jsonl_path = serial;
  sopt.collect = false;
  ASSERT_TRUE(exp::run_batch(configs, sopt).report.ok());

  std::size_t worker_total = 0;
  for (std::size_t i = 0; i < 3; ++i) {
    const auto outcome = run_slice(configs, canonical, i, 3);
    ASSERT_TRUE(outcome.report.ok());
    worker_total += outcome.report.executed;
  }
  EXPECT_EQ(worker_total, configs.size());

  // Stores added last slice first: the merge itself restores job order.
  exp::StoreMerger merger;
  for (std::size_t i = 3; i-- > 0;)
    merger.add_store(exp::worker_store_path(canonical, i, 3));
  const auto report = merger.merge_to(canonical);
  EXPECT_EQ(report.stores_read, 3u);
  EXPECT_EQ(report.records, configs.size());
  EXPECT_EQ(report.duplicates_dropped, 0u);
  EXPECT_EQ(report.corrupt_lines, 0u);

  const auto serial_bytes = read_file(serial);
  ASSERT_FALSE(serial_bytes.empty());
  EXPECT_EQ(serial_bytes, read_file(canonical));
  // The merge writes the canonical store and nothing beside it.
  EXPECT_FALSE(util::file_exists(canonical + ".ckpt"));

  std::remove(serial.c_str());
  remove_run_files(canonical, 3);
}

TEST(StoreMerger, DropsDuplicatesAndIgnoresCorruptTails) {
  const auto configs = small_sweep();
  const auto canonical = temp_path("dupes.jsonl");
  remove_run_files(canonical, 2);
  for (std::size_t i = 0; i < 2; ++i)
    ASSERT_TRUE(run_slice(configs, canonical, i, 2).report.ok());

  // Corrupt one store's tail (mid-write kill) and duplicate a record.
  const auto store0 = exp::worker_store_path(canonical, 0, 2);
  std::string first_line;
  {
    std::ifstream in(store0);
    std::getline(in, first_line);
  }
  {
    std::ofstream out(store0, std::ios::app);
    out << first_line << "\n{\"job\":99,\"hash\":\"truncat";  // no newline
  }

  exp::StoreMerger merger;
  merger.add_store(store0);
  merger.add_store(exp::worker_store_path(canonical, 1, 2));
  merger.add_store(temp_path("does_not_exist.jsonl"));
  const auto report = merger.merge_to(canonical);
  EXPECT_EQ(report.stores_read, 2u);
  EXPECT_EQ(report.records, configs.size());
  EXPECT_EQ(report.duplicates_dropped, 1u);
  EXPECT_EQ(report.corrupt_lines, 1u);
  EXPECT_EQ(exp::load_completed_hashes(canonical).size(), configs.size());

  remove_run_files(canonical, 2);
}

// --------------------------------------- crash detection + resume converges --

TEST(ShardPlan, KilledWorkerIsDetectedAndResumeConvergesByteIdentically) {
  const auto configs = small_sweep();
  const auto serial = temp_path("kill_serial.jsonl");
  const auto canonical = temp_path("kill_merged.jsonl");
  remove_run_files(canonical, 3);

  exp::BatchOptions sopt;
  sopt.jsonl_path = serial;
  sopt.collect = false;
  ASSERT_TRUE(exp::run_batch(configs, sopt).report.ok());

  // All three workers run; then the busiest one is "SIGKILLed" after 2
  // jobs — its store keeps a clean 2-record prefix.
  for (std::size_t i = 0; i < 3; ++i)
    ASSERT_TRUE(run_slice(configs, canonical, i, 3).report.ok());
  std::size_t victim = 0;
  for (std::size_t i = 1; i < 3; ++i)
    if (slice(configs, i, 3).size() > slice(configs, victim, 3).size())
      victim = i;
  const std::size_t victim_jobs = slice(configs, victim, 3).size();
  ASSERT_GT(victim_jobs, 2u);  // pigeonhole: max >= 6
  const auto victim_store = exp::worker_store_path(canonical, victim, 3);
  keep_lines(victim_store, 2);

  // Resume re-runs only the dead slice's missing jobs...
  const auto resumed = run_slice(configs, canonical, victim, 3, true);
  ASSERT_TRUE(resumed.report.ok());
  EXPECT_EQ(resumed.report.skipped, 2u);
  EXPECT_EQ(resumed.report.executed, victim_jobs - 2u);

  // ...and the merge converges to the serial bytes: no loss, no dupes.
  exp::StoreMerger merger;
  for (std::size_t i = 0; i < 3; ++i)
    merger.add_store(exp::worker_store_path(canonical, i, 3));
  const auto report = merger.merge_to(canonical);
  EXPECT_EQ(report.records, configs.size());
  EXPECT_EQ(report.duplicates_dropped, 0u);
  EXPECT_EQ(read_file(serial), read_file(canonical));

  std::remove(serial.c_str());
  remove_run_files(canonical, 3);
}

// -------------------------------------------------------- lease partition --

TEST(LeaseTable, InitialPartitionIsBalancedAndComplete) {
  for (const auto& [jobs, slots] : std::vector<std::pair<std::size_t,
                                                         std::size_t>>{
           {0, 1}, {1, 1}, {5, 2}, {7, 3}, {18, 4}, {3, 8}, {100, 7}}) {
    const exp::LeaseTable table(jobs, slots);
    EXPECT_TRUE(table.partitions_queue()) << jobs << "/" << slots;
    std::size_t covered = 0, max_size = 0, min_size = jobs + 1;
    for (std::size_t k = 0; k < table.slots(); ++k) {
      covered += table.lease(k).size();
      max_size = std::max(max_size, table.lease(k).size());
      min_size = std::min(min_size, table.lease(k).size());
      // Empty leases (more slots than jobs) are born drained.
      EXPECT_EQ(table.drained(k), table.lease(k).empty());
    }
    EXPECT_EQ(covered, jobs);
    if (jobs >= slots) {
      EXPECT_LE(max_size - min_size, 1u) << "unbalanced";
    }
  }
}

TEST(LeaseTable, StealValidationRejectsInvalidRequests) {
  exp::LeaseTable table(20, 2);  // slot0 [0,10), slot1 [10,20)
  // Thief still live.
  EXPECT_FALSE(table.steal(0, 1, 5).has_value());
  table.mark_drained(1);
  // Split outside (begin, end).
  EXPECT_FALSE(table.steal(0, 1, 0).has_value());
  EXPECT_FALSE(table.steal(0, 1, 10).has_value());
  EXPECT_FALSE(table.steal(0, 1, 15).has_value());
  // Self-steal and out-of-range slots.
  EXPECT_FALSE(table.steal(0, 0, 5).has_value());
  EXPECT_FALSE(table.steal(7, 1, 5).has_value());
  // Valid steal; then the drained victim cannot be stolen from.
  const auto lease = table.steal(0, 1, 6);
  ASSERT_TRUE(lease.has_value());
  EXPECT_EQ(lease->begin, 6u);
  EXPECT_EQ(lease->end, 10u);
  EXPECT_TRUE(table.partitions_queue());
  table.mark_drained(0);
  table.mark_drained(1);
  EXPECT_FALSE(table.steal(0, 1, 8).has_value());
  EXPECT_TRUE(table.all_drained());
}

TEST(LeaseTable, RandomStealSequencesPreserveThePartitionInvariant) {
  // Property test: whatever interleaving of drains and (valid or invalid)
  // steals the supervisor performs, the leases — live plus retired — must
  // always tile [0, jobs) exactly: pairwise-disjoint, no gaps.
  std::mt19937 rng(20260729);
  for (int trial = 0; trial < 200; ++trial) {
    const std::size_t jobs = 1 + rng() % 300;
    const std::size_t slots = 1 + rng() % 8;
    exp::LeaseTable table(jobs, slots);
    ASSERT_TRUE(table.partitions_queue());

    std::size_t steals = 0;
    for (int op = 0; op < 64; ++op) {
      const std::size_t a = rng() % slots;
      if (rng() % 2 == 0) {
        if (!table.drained(a)) table.mark_drained(a);
      } else {
        const std::size_t victim = rng() % slots;
        const std::size_t split = rng() % (jobs + 2);
        const auto before_victim = table.lease(victim);
        const auto lease = table.steal(victim, a, split);
        if (lease.has_value()) {
          ++steals;
          // The stolen range is exactly the victim's former tail.
          EXPECT_EQ(lease->begin, split);
          EXPECT_EQ(lease->end, before_victim.end);
          EXPECT_EQ(table.lease(victim).end, split);
          EXPECT_FALSE(table.drained(a));
        }
      }
      ASSERT_TRUE(table.partitions_queue())
          << "trial " << trial << " op " << op << " jobs " << jobs
          << " slots " << slots;
    }
    // Drain everything: the table must agree the queue is fully covered.
    for (std::size_t k = 0; k < slots; ++k) table.mark_drained(k);
    EXPECT_TRUE(table.all_drained());
    (void)steals;
  }
}

TEST(JobQueue, SliceMatchesReferenceModelAndTilesTheQueue) {
  const auto configs = small_sweep();
  const exp::JobQueue sweep(configs, 77);
  std::mt19937 rng(987);
  for (const std::uint64_t master : {std::uint64_t{0}, std::uint64_t{77}}) {
    const exp::JobQueue full(configs, master);
    for (int trial = 0; trial < 50; ++trial) {
      const std::size_t begin = rng() % (configs.size() + 2);
      const std::size_t end = rng() % (configs.size() + 2);
      // Reference model: filter the enumerated sweep by index directly.
      std::vector<std::size_t> expected;
      for (std::size_t i = 0; i < configs.size(); ++i)
        if (i >= begin && i < end) expected.push_back(i);
      // Two ways to the window: cut from the whole queue, or build only
      // configs[begin, end) (what a lease worker plans).
      const exp::JobQueue cut = full.slice(begin, end);
      const exp::JobQueue window(configs, master, begin, end);
      for (const exp::JobQueue* q : {&cut, &window}) {
        ASSERT_EQ(q->size(), expected.size()) << begin << ".." << end;
        for (std::size_t pos = 0; pos < q->size(); ++pos) {
          const exp::ExperimentJob& job = q->job(pos);
          EXPECT_EQ(job.index, expected[pos]);
          // The same derived seed and hash as the whole queue's job.
          EXPECT_EQ(job.config.machine.seed,
                    full.job(job.index).config.machine.seed);
          EXPECT_EQ(job.content_hash, exp::job_content_hash(job.config));
          EXPECT_EQ(job.content_hash, full.job(job.index).content_hash);
        }
      }
    }
  }

  // A slice of a slice keeps the sweep indices (the window is by index,
  // not by position).
  const exp::JobQueue inner = sweep.slice(3, 9).slice(5, 20);
  ASSERT_EQ(inner.size(), 4u);
  EXPECT_EQ(inner.job(0).index, 5u);
  EXPECT_EQ(inner.job(3).index, 8u);

  // A LeaseTable partition applied through slice covers the queue
  // exactly once, for several slot counts.
  for (const std::size_t slots : {1u, 2u, 3u, 5u, 18u, 30u}) {
    const exp::LeaseTable table(configs.size(), slots);
    std::vector<int> owners(configs.size(), 0);
    for (std::size_t k = 0; k < table.slots(); ++k) {
      const exp::JobQueue q =
          sweep.slice(table.lease(k).begin, table.lease(k).end);
      EXPECT_EQ(q.size(), table.lease(k).size());
      for (std::size_t pos = 0; pos < q.size(); ++pos)
        ++owners[q.job(pos).index];
    }
    for (std::size_t i = 0; i < owners.size(); ++i)
      EXPECT_EQ(owners[i], 1) << "job " << i << " with " << slots << " slots";
  }
}

TEST(LeaseTable, ReassignMovesTheUncommittedTailToTheThief) {
  exp::LeaseTable table(20, 2);  // slot0 [0,10), slot1 [10,20)
  table.mark_drained(1);

  // Invalid requests leave the table untouched: self-reassign,
  // out-of-range slots, live thief, drained victim, frontier outside
  // the victim's lease.
  EXPECT_FALSE(table.reassign(0, 0, 5).has_value());
  EXPECT_FALSE(table.reassign(7, 1, 5).has_value());
  EXPECT_FALSE(table.reassign(1, 0, 15).has_value());  // thief 0 is live
  EXPECT_FALSE(table.reassign(0, 1, 11).has_value());  // frontier > end
  EXPECT_FALSE(table.drained(0));
  EXPECT_EQ(table.lease(0).begin, 0u);
  EXPECT_EQ(table.lease(0).end, 10u);
  EXPECT_TRUE(table.partitions_queue());

  // The thief takes the dead victim's uncommitted tail; the committed
  // head retires and the victim collapses to an empty drained lease.
  const auto old_gen = table.lease(1).generation;
  const auto moved = table.reassign(0, 1, 4);
  ASSERT_TRUE(moved.has_value());
  EXPECT_EQ(moved->begin, 4u);
  EXPECT_EQ(moved->end, 10u);
  EXPECT_GT(moved->generation, old_gen);
  EXPECT_TRUE(table.drained(0));
  EXPECT_TRUE(table.lease(0).empty());
  EXPECT_FALSE(table.drained(1));
  EXPECT_TRUE(table.partitions_queue());

  // A fully-committed victim has no tail to move: the lease just
  // retires (nullopt), the victim drains, the thief stays drained.
  table.mark_drained(1);
  exp::LeaseTable done(8, 2);  // slot0 [0,4), slot1 [4,8)
  done.mark_drained(1);
  EXPECT_FALSE(done.reassign(0, 1, 4).has_value());
  EXPECT_TRUE(done.drained(0));
  EXPECT_TRUE(done.drained(1));
  EXPECT_TRUE(done.partitions_queue());
  EXPECT_TRUE(done.all_drained());
}

// ----------------------------------------------------- adaptive timeout --

TEST(AdaptiveTimeout, IsInfiniteUntilTheFirstSampleArrives) {
  exp::AdaptiveTimeout at;
  EXPECT_TRUE(std::isinf(at.timeout_seconds()));
  EXPECT_EQ(at.samples(), 0u);

  // Garbage samples are ignored, not recorded.
  at.record(0.0);
  at.record(-1.5);
  EXPECT_TRUE(std::isinf(at.timeout_seconds()));
  EXPECT_EQ(at.samples(), 0u);
}

TEST(AdaptiveTimeout, ClampsToTheFloorAndTheCap) {
  exp::AdaptiveTimeout fast;
  fast.record(0.01);  // raw = max(0.08, 0.02) — far below the 3s floor
  EXPECT_DOUBLE_EQ(fast.timeout_seconds(), 3.0);

  exp::AdaptiveTimeout slow;
  slow.record(100.0);  // raw = max(800, 200) — far above the 600s cap
  EXPECT_DOUBLE_EQ(slow.timeout_seconds(), 600.0);
}

TEST(AdaptiveTimeout, TracksTheP99AndKeepsAWhaleGuard) {
  // A uniform distribution drives the p99 * multiplier term.
  exp::AdaptiveTimeout at;
  for (int i = 0; i < 100; ++i) at.record(1.0);
  EXPECT_DOUBLE_EQ(at.timeout_seconds(), 8.0);  // 1.0 * 8

  // One whale: the max*2 guard dominates a p99 that stayed small.
  exp::AdaptiveTimeout whale;
  for (int i = 0; i < 100; ++i) whale.record(0.1);
  whale.record(10.0);
  EXPECT_DOUBLE_EQ(whale.timeout_seconds(), 20.0);  // max(0.8, 20)

  // The whale guard is all-time: evicting the whale from the sliding
  // window does not forget it.
  exp::AdaptiveTimeoutConfig tiny;
  tiny.window = 2;
  exp::AdaptiveTimeout evicted(tiny);
  evicted.record(5.0);
  evicted.record(0.1);
  evicted.record(0.1);  // window now holds {0.1, 0.1}
  EXPECT_DOUBLE_EQ(evicted.timeout_seconds(), 10.0);  // 5.0 * 2
}

// ------------------------------------------------------------- quarantine --

TEST(Quarantine, EntriesRoundTripAndMalformedLinesAreSkipped) {
  const auto canonical = temp_path("quarantine.jsonl");
  const auto path = exp::quarantine_path(canonical);
  EXPECT_EQ(path, canonical + ".quarantine");
  std::remove(path.c_str());
  EXPECT_TRUE(exp::read_quarantine_file(path).empty()) << "missing file";

  exp::append_quarantine_entry(path, {0x0123456789abcdefULL, 7});
  {
    std::ofstream out(path, std::ios::app | std::ios::binary);
    out << "not-a-hash 3\n";
  }
  exp::append_quarantine_entry(path, {0xfedcba9876543210ULL, 12});
  {
    std::ofstream out(path, std::ios::app | std::ios::binary);
    out << "0123";  // torn final append
  }

  const auto entries = exp::read_quarantine_file(path);
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_EQ(entries[0].content_hash, 0x0123456789abcdefULL);
  EXPECT_EQ(entries[0].job_index, 7u);
  EXPECT_EQ(entries[1].content_hash, 0xfedcba9876543210ULL);
  EXPECT_EQ(entries[1].job_index, 12u);
  std::remove(path.c_str());
}

// ---------------------------------------------------------- run reports --

TEST(SupervisorReport, SummaryNamesEveryEventAndTheMergeVerdict) {
  exp::SupervisorReport r;
  r.planned_jobs = 18;
  r.slots = 3;
  EXPECT_FALSE(r.ok()) << "no merge, no success";
  EXPECT_EQ(r.summary(),
            "18 jobs over 3 worker(s); merge skipped (re-run with --resume "
            "to finish)");

  exp::WorkerExit clean;
  clean.exit_code = 0;
  exp::WorkerExit killed;
  killed.term_signal = 9;
  exp::WorkerExit failed;
  failed.exit_code = 3;
  EXPECT_TRUE(clean.ok());
  EXPECT_FALSE(killed.ok());
  EXPECT_FALSE(failed.ok());

  r.workers = {clean, killed, clean};
  r.steals = 2;
  r.restarts = 1;
  r.quarantined = 1;
  r.orphaned = 1;
  r.merged = true;
  r.merge.records = 17;
  r.merge.duplicates_dropped = 2;
  EXPECT_TRUE(r.ok()) << "a restarted worker's exit does not fail the run";
  EXPECT_EQ(r.summary(),
            "18 jobs over 3 worker(s), 2 lease(s) stolen, 1 worker(s) "
            "auto-restarted, 1 poison job(s) quarantined, 1 worker(s) "
            "orphaned by the lease server, 1 worker exit(s) failed; merged "
            "17 record(s) (2 duplicate(s) dropped)");
}

// ------------------------------------------------------------- empty slots --

TEST(ShardWorkers, EmptyRangeSliceLeavesAValidEmptyStore) {
  // More slices than jobs: some slices own zero jobs. Running one must
  // succeed and leave a valid, empty store.
  const auto configs = small_sweep();
  const std::size_t count = configs.size() + 7;  // pigeonhole: empty slices
  const auto canonical = temp_path("empty_slice.jsonl");
  remove_run_files(canonical, count);

  std::size_t empty_slice = count;
  for (std::size_t i = 0; i < count; ++i)
    if (slice(configs, i, count).empty()) empty_slice = i;
  ASSERT_LT(empty_slice, count);

  const auto outcome = run_slice(configs, canonical, empty_slice, count);
  EXPECT_TRUE(outcome.report.ok());
  EXPECT_EQ(outcome.report.total_jobs, 0u);
  EXPECT_EQ(outcome.report.executed, 0u);
  const auto store = exp::worker_store_path(canonical, empty_slice, count);
  EXPECT_TRUE(oracle::util::file_exists(store));
  EXPECT_TRUE(read_file(store).empty());
  EXPECT_TRUE(exp::load_completed_hashes(store).empty());
  // And the merger treats the empty store as a valid no-op input.
  exp::StoreMerger merger;
  merger.add_store(store);
  EXPECT_EQ(merger.merge_to(canonical).records, 0u);

  remove_run_files(canonical, count);
}

// ---------------------------------------------------------- process layer --

TEST(ShardProcesses, SelfExecPathResolvesToARealFile) {
  const auto path = exp::self_exec_path("fallback");
  std::ifstream probe(path, std::ios::binary);
  EXPECT_TRUE(probe.good()) << path;
}

TEST(ShardProcesses, SupervisorRejectsBadSetupBeforeSpawningAnything) {
  const auto configs = small_sweep();
  exp::SupervisorOptions good;
  good.workers = 2;
  good.out = temp_path("setup.jsonl");
  good.exec_path = exp::self_exec_path("fallback");

  auto opt = good;
  opt.out.clear();
  EXPECT_THROW(exp::run_supervisor(configs, opt), ConfigError);
  opt = good;
  opt.workers = 0;
  EXPECT_THROW(exp::run_supervisor(configs, opt), ConfigError);
  opt = good;
  opt.exec_path.clear();
  EXPECT_THROW(exp::run_supervisor(configs, opt), ConfigError);
  opt = good;
  opt.lease_server = "nohost";
  EXPECT_THROW(exp::run_supervisor(configs, opt), ConfigError);
  // A remote lease service owns its expiry; a local one cannot be set.
  opt = good;
  opt.lease_server = "127.0.0.1:1";
  opt.expiry_ms = 250;
  EXPECT_THROW(exp::run_supervisor(configs, opt), ConfigError);
  EXPECT_THROW(exp::run_supervisor({}, good), ConfigError);
  EXPECT_FALSE(util::file_exists(good.out));
}

// ------------------------------------------------------------ lease workers --

/// A journal-less in-process lease service (what a local `run --workers
/// N` starts), served on its own thread until finish() or destruction.
struct LocalLeaseService {
  static exp::LeaseServiceOptions options(std::size_t jobs,
                                          std::size_t slots,
                                          std::uint32_t expiry_ms = 0) {
    exp::LeaseServiceOptions opt;
    opt.jobs = jobs;
    opt.slots = slots;
    opt.expiry_ms = expiry_ms;
    opt.linger_ms = 60'000;  // answer `done` until finish()
    return opt;
  }

  LocalLeaseService(std::size_t jobs, std::size_t slots,
                    std::uint32_t expiry_ms = 0)
      : svc(options(jobs, slots, expiry_ms)) {
    svc.start();
    th = std::thread([this] { svc.run(); });
  }
  ~LocalLeaseService() { finish(); }

  std::string address() const {
    return "127.0.0.1:" + std::to_string(svc.port());
  }
  const exp::LeaseServiceStats& finish() {
    svc.stop();
    if (th.joinable()) th.join();
    return svc.stats();
  }

  exp::LeaseService svc;
  std::thread th;
};

exp::LeaseWorkerOptions lease_worker_options(const std::string& canonical,
                                             const std::string& server) {
  exp::LeaseWorkerOptions wopt;
  wopt.canonical_out = canonical;
  wopt.client.server = *util::HostPort::parse(server);
  wopt.client.backoff_base_ms = 1;
  wopt.client.backoff_cap_ms = 5;
  return wopt;
}

void write_serial_store(const std::vector<core::ExperimentConfig>& configs,
                        const std::string& path) {
  std::remove(path.c_str());
  exp::BatchOptions opt;
  opt.jsonl_path = path;
  opt.collect = false;
  ASSERT_TRUE(exp::run_batch(configs, opt).report.ok());
}

void remove_lease_run_files(const std::string& canonical) {
  std::remove(canonical.c_str());
  std::remove(exp::worker_store_path(canonical, 0, 1).c_str());
}

TEST(ShardWorkers, EmptyLeaseWorkerExitsCleanlyWithValidEmptyStore) {
  // A lease worker with nothing left to run — its lease is already in the
  // canonical store (a --resume), or the sweep finished before it asked —
  // must succeed and leave a valid, empty store.
  const auto configs = small_sweep();
  const auto canonical = temp_path("empty_lease.jsonl");
  const auto merged = temp_path("empty_lease_merged.jsonl");
  const auto store = exp::worker_store_path(canonical, 0, 1);
  remove_lease_run_files(canonical);
  write_serial_store(configs, canonical);

  LocalLeaseService service(configs.size(), 1);
  auto wopt = lease_worker_options(canonical, service.address());
  wopt.merge_resume = true;

  // Case 1: every job of the lease is already merged.
  auto report = exp::run_lease_client_worker(configs, wopt);
  EXPECT_TRUE(report.batch.ok());
  EXPECT_FALSE(report.orphaned);
  EXPECT_EQ(report.leases_run, 1u);
  EXPECT_EQ(report.batch.executed, 0u);
  EXPECT_EQ(report.batch.skipped, configs.size());
  EXPECT_TRUE(util::file_exists(store));
  EXPECT_TRUE(read_file(store).empty());

  // Case 2: a respawned worker asks after the sweep is done.
  report = exp::run_lease_client_worker(configs, wopt);
  EXPECT_TRUE(report.batch.ok());
  EXPECT_FALSE(report.orphaned);
  EXPECT_EQ(report.leases_run, 0u);
  EXPECT_EQ(report.batch.total_jobs, 0u);
  EXPECT_TRUE(read_file(store).empty());
  EXPECT_TRUE(service.finish().completed);

  // And the merger treats the empty store as a valid no-op input.
  exp::StoreMerger merger;
  merger.add_store(store);
  EXPECT_EQ(merger.merge_to(merged).records, 0u);

  remove_lease_run_files(canonical);
  std::remove(merged.c_str());
}

TEST(ShardWorkers, LeaseWorkerWithSeveralThreadsMatchesSerialBytes) {
  // Workers commit their durable frontier once per commit group, so they
  // run the executor threads the supervisor passes them.
  const auto configs = small_sweep();
  const auto serial = temp_path("lease_threads_serial.jsonl");
  const auto canonical = temp_path("lease_threads.jsonl");
  remove_lease_run_files(canonical);
  write_serial_store(configs, serial);

  LocalLeaseService service(configs.size(), 1);
  auto wopt = lease_worker_options(canonical, service.address());
  wopt.threads = 3;
  const auto report = exp::run_lease_client_worker(configs, wopt);
  EXPECT_TRUE(report.batch.ok());
  EXPECT_FALSE(report.orphaned);
  EXPECT_FALSE(report.fenced);
  EXPECT_EQ(report.leases_run, 1u);
  EXPECT_EQ(report.batch.executed, configs.size());
  EXPECT_EQ(read_file(exp::worker_store_path(canonical, 0, 1)),
            read_file(serial));
  const auto& stats = service.finish();
  EXPECT_TRUE(stats.completed);
  EXPECT_EQ(stats.fenced, 0u);

  remove_lease_run_files(canonical);
  std::remove(serial.c_str());
}

TEST(ShardWorkers, JobsPerSecondCountsFailedJobsInEveryReport) {
  // One job throws. A single-process run and a lease worker report the
  // same rate: every job that ran, failed ones included, per second.
  auto configs = small_sweep();
  configs[3].topology = "nonsense:9q";  // parses at run time → job fails
  const auto canonical = temp_path("rate_failed.jsonl");
  remove_lease_run_files(canonical);

  exp::BatchOptions opt;
  opt.collect = false;
  const auto single = exp::run_batch(configs, opt).report;
  EXPECT_EQ(single.failed, 1u);
  EXPECT_EQ(single.executed, configs.size() - 1);
  ASSERT_GT(single.elapsed_seconds, 0.0);
  EXPECT_DOUBLE_EQ(single.jobs_per_second(),
                   static_cast<double>(configs.size()) /
                       single.elapsed_seconds);

  LocalLeaseService service(configs.size(), 1);
  const auto report = exp::run_lease_client_worker(
      configs, lease_worker_options(canonical, service.address()));
  const exp::BatchReport& leased = report.batch;
  EXPECT_EQ(leased.failed, 1u);
  EXPECT_EQ(leased.executed, configs.size() - 1);
  ASSERT_GT(leased.elapsed_seconds, 0.0);
  EXPECT_DOUBLE_EQ(leased.jobs_per_second(),
                   static_cast<double>(configs.size()) /
                       leased.elapsed_seconds);
  service.finish();
  remove_lease_run_files(canonical);
}

TEST(LeaseWorker, TakeoverSkipsSiblingRecordsWrittenAfterItStarted) {
  // Slot 0 drains its own lease while slot 1 never checks in. Only then do
  // records for part of slot 1's range land in slot 1's store (its worker
  // wrote them and died before its first request). Once slot 1 expires,
  // slot 0 takes its lease over and must skip exactly those jobs: the skip
  // set is refreshed per lease, not loaded once when the worker starts.
  const auto configs = small_sweep();  // slot 0: [0, 9), slot 1: [9, 18)
  const auto canonical = temp_path("late_sibling.jsonl");
  const auto serial = temp_path("late_sibling_serial.jsonl");
  const auto own = exp::worker_store_path(canonical, 0, 2);
  const auto sibling = exp::worker_store_path(canonical, 1, 2);
  remove_run_files(canonical, 2);
  write_serial_store(configs, serial);

  // Slot 1's silence counts from the service's start: it cannot expire
  // before `started` + 2 s.
  const auto started = std::chrono::steady_clock::now();
  LocalLeaseService service(configs.size(), 2, /*expiry_ms=*/2'000);
  auto wopt = lease_worker_options(canonical, service.address());
  wopt.client.slot_count = 2;
  exp::LeaseWorkerReport report;
  std::thread worker(
      [&] { report = exp::run_lease_client_worker(configs, wopt); });
  struct Joiner {  // a failed ASSERT below must not leave it joinable
    std::thread& t;
    ~Joiner() {
      if (t.joinable()) t.join();
    }
  } joiner{worker};

  auto lines = [](const std::string& path) {
    const std::string text = read_file(path);
    return static_cast<std::size_t>(
        std::count(text.begin(), text.end(), '\n'));
  };
  const auto deadline = started + std::chrono::seconds(10);
  while (lines(own) < 9 && std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  ASSERT_EQ(lines(own), 9u) << "slot 0 never drained its own lease";

  // Jobs 10, 11 and 13 of slot 1's range, as its worker wrote them.
  exp::JobQueue late(configs, 0, 10, 14);
  late.skip_completed({late.job(2).content_hash});
  std::vector<std::size_t> late_jobs;
  for (const auto& job : late.jobs()) late_jobs.push_back(job.index);
  ASSERT_EQ(late_jobs, (std::vector<std::size_t>{10, 11, 13}));
  exp::BatchOptions opt;
  opt.jsonl_path = sibling;
  opt.collect = false;
  ASSERT_TRUE(exp::run_batch(late, opt).report.ok());
  ASSERT_LT(std::chrono::steady_clock::now() - started,
            std::chrono::seconds(2))
      << "slot 1 may have expired before its records were written";

  worker.join();
  EXPECT_FALSE(report.orphaned);
  EXPECT_TRUE(report.batch.ok());
  EXPECT_EQ(report.leases_run, 2u) << "its own lease, then slot 1's";
  EXPECT_EQ(report.batch.skipped, late_jobs.size());
  EXPECT_EQ(report.batch.executed, configs.size() - late_jobs.size());
  std::ifstream in(own);
  std::string line;
  while (std::getline(in, line)) {
    const auto rec = exp::parse_jsonl_record(line);
    ASSERT_TRUE(rec.has_value()) << line;
    EXPECT_EQ(std::count(late_jobs.begin(), late_jobs.end(), rec->job_index),
              0)
        << "job " << rec->job_index << " ran twice";
  }
  const auto& stats = service.finish();
  EXPECT_TRUE(stats.completed);
  EXPECT_EQ(stats.reassigns, 1u);

  // Together the two slot stores are the serial run.
  exp::StoreMerger merger;
  merger.add_store(own);
  merger.add_store(sibling);
  EXPECT_EQ(merger.merge_to(canonical).duplicates_dropped, 0u);
  EXPECT_EQ(read_file(canonical), read_file(serial));

  remove_run_files(canonical, 2);
  std::remove(serial.c_str());
}

TEST(ShardWorkers, LeaseWorkerIsOrphanedWhenNoServerAnswers) {
  const auto configs = small_sweep();
  const auto canonical = temp_path("lease_orphan.jsonl");
  remove_lease_run_files(canonical);
  std::uint16_t port = 0;
  {
    exp::LeaseService gone(LocalLeaseService::options(configs.size(), 1));
    gone.start();
    port = gone.port();
  }  // the listener closes: nothing answers on `port` any more

  auto wopt =
      lease_worker_options(canonical, "127.0.0.1:" + std::to_string(port));
  wopt.client.op_timeout_ms = 200;
  wopt.client.retry_budget = 2;
  const auto report = exp::run_lease_client_worker(configs, wopt);
  EXPECT_TRUE(report.orphaned);
  EXPECT_EQ(report.leases_run, 0u);
  EXPECT_EQ(report.batch.executed, 0u);
  EXPECT_EQ(report.retries, 2u);

  remove_lease_run_files(canonical);
}

}  // namespace
}  // namespace oracle
