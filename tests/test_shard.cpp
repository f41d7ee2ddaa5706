// Crash-safe distributed sharding (src/exp/shard.*): shard assignment and
// slicing, the merge protocol's byte-identical guarantee vs a serial run,
// crash detection + resume convergence after a simulated SIGKILL, the
// POSIX process-spawn layer, and property tests for the work-stealing
// lease protocol (lease partition invariants under random steal sequences,
// retain_range/retain_shard vs a reference model, heartbeat staleness).

#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <random>
#include <sstream>
#include <string>
#include <unordered_set>
#include <vector>

#include "core/sweep.hpp"
#include "exp/exp.hpp"
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

void remove_run_files(const std::string& canonical, std::size_t shards) {
  std::remove(canonical.c_str());
  for (std::size_t i = 0; i < shards; ++i) {
    const auto store = exp::shard_store_path(canonical, i, shards);
    std::remove(store.c_str());
  }
}

/// Run one shard's slice in-process, exactly as an `oracle_batch run
/// --shard i/N` worker would.
exp::BatchOutcome run_shard_worker(
    const std::vector<core::ExperimentConfig>& configs,
    const std::string& canonical, std::size_t index, std::size_t count,
    bool resume = false) {
  exp::BatchOptions opt;
  opt.jsonl_path = exp::shard_store_path(canonical, index, count);
  opt.shard_index = index;
  opt.shard_count = count;
  opt.resume = resume;
  if (resume) opt.extra_resume_stores.push_back(canonical);
  opt.collect = false;
  return exp::run_batch(configs, opt);
}

// -------------------------------------------------------------- ShardSpec --

TEST(ShardSpec, ParsesValidAndRejectsMalformed) {
  const auto s = exp::ShardSpec::parse("2/4");
  ASSERT_TRUE(s.has_value());
  EXPECT_EQ(s->index, 2u);
  EXPECT_EQ(s->count, 4u);
  EXPECT_EQ(s->to_string(), "2/4");
  EXPECT_TRUE(exp::ShardSpec::parse("0/1").has_value());

  for (const char* bad : {"", "3", "4/4", "5/4", "/4", "2/", "a/b", "-1/4",
                          "1/-3", "-1/-3", "1/0", "1/4/2"})
    EXPECT_FALSE(exp::ShardSpec::parse(bad).has_value()) << bad;
}

TEST(ShardSpec, HashRuleIsStableAndStorePathsAreDistinct) {
  EXPECT_EQ(exp::shard_of_hash(17, 1), 0u);
  EXPECT_EQ(exp::shard_of_hash(17, 4), 17u % 4u);
  EXPECT_EQ(exp::shard_of_hash(17, 0), 0u);  // degenerate count

  std::unordered_set<std::string> paths;
  for (std::size_t i = 0; i < 4; ++i)
    EXPECT_TRUE(paths.insert(exp::shard_store_path("sweep.jsonl", i, 4)).second);
  EXPECT_EQ(exp::shard_store_path("s.jsonl", 1, 4), "s.jsonl.shard1of4");
}

// --------------------------------------------------------- queue slicing --

TEST(ShardPlan, RetainShardPartitionsTheQueueDisjointly) {
  const auto configs = small_sweep();
  std::unordered_set<std::uint64_t> seen;
  std::size_t total = 0;
  for (std::size_t i = 0; i < 3; ++i) {
    exp::JobQueue q(configs);
    q.retain_shard(i, 3);
    total += q.size();
    for (const auto& job : q.jobs()) {
      EXPECT_EQ(job.content_hash % 3, i);
      EXPECT_TRUE(seen.insert(job.content_hash).second)
          << "job in two shards";
    }
  }
  EXPECT_EQ(total, configs.size());

  // count <= 1 keeps everything.
  exp::JobQueue q(configs);
  EXPECT_EQ(q.retain_shard(0, 1), 0u);
  EXPECT_EQ(q.size(), configs.size());
}

TEST(ShardPlan, PlanMatchesRetainShardAndCountsJobs) {
  const auto configs = small_sweep();
  exp::JobQueue q(configs);
  const exp::ShardPlan plan(q, 3);
  EXPECT_EQ(plan.count(), 3u);
  EXPECT_EQ(plan.total_jobs(), configs.size());
  std::size_t total = 0;
  for (std::size_t i = 0; i < 3; ++i) {
    for (const auto h : plan.shard_hashes(i)) EXPECT_EQ(h % 3, i);
    total += plan.shard_hashes(i).size();
  }
  EXPECT_EQ(total, configs.size());
}

// ------------------------------------------------ merge = serial, bytewise --

TEST(ShardMerger, MergedStoreIsByteIdenticalToSerialRun) {
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
    const auto outcome = run_shard_worker(configs, canonical, i, 3);
    ASSERT_TRUE(outcome.report.ok());
    worker_total += outcome.report.executed;
  }
  EXPECT_EQ(worker_total, configs.size());

  exp::ShardMerger merger;
  for (std::size_t i = 0; i < 3; ++i)
    merger.add_store(exp::shard_store_path(canonical, i, 3));
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

TEST(ShardMerger, DropsDuplicatesAndIgnoresCorruptTails) {
  const auto configs = small_sweep();
  const auto canonical = temp_path("dupes.jsonl");
  remove_run_files(canonical, 2);
  for (std::size_t i = 0; i < 2; ++i)
    ASSERT_TRUE(run_shard_worker(configs, canonical, i, 2).report.ok());

  // Corrupt one store's tail (mid-write kill) and duplicate a record.
  const auto store0 = exp::shard_store_path(canonical, 0, 2);
  std::string first_line;
  {
    std::ifstream in(store0);
    std::getline(in, first_line);
  }
  {
    std::ofstream out(store0, std::ios::app);
    out << first_line << "\n{\"job\":99,\"hash\":\"truncat";  // no newline
  }

  exp::ShardMerger merger;
  merger.add_store(store0);
  merger.add_store(exp::shard_store_path(canonical, 1, 2));
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
    ASSERT_TRUE(run_shard_worker(configs, canonical, i, 3).report.ok());
  exp::JobQueue queue(configs);
  const exp::ShardPlan plan(queue, 3);
  std::size_t victim = 0;
  for (std::size_t i = 1; i < 3; ++i)
    if (plan.shard_hashes(i).size() > plan.shard_hashes(victim).size())
      victim = i;
  ASSERT_GT(plan.shard_hashes(victim).size(), 2u);  // pigeonhole: max >= 6
  const auto victim_store = exp::shard_store_path(canonical, victim, 3);
  keep_lines(victim_store, 2);

  // Crash detection: only the killed shard is incomplete.
  EXPECT_EQ(plan.incomplete_shards(canonical),
            (std::vector<std::size_t>{victim}));

  // Resume re-runs only the dead shard's missing jobs...
  const auto resumed = run_shard_worker(configs, canonical, victim, 3, true);
  ASSERT_TRUE(resumed.report.ok());
  EXPECT_EQ(resumed.report.skipped, 2u);
  EXPECT_EQ(resumed.report.executed,
            plan.shard_hashes(victim).size() - 2u);
  EXPECT_TRUE(plan.incomplete_shards(canonical).empty());

  // ...and the merge converges to the serial bytes: no loss, no dupes.
  exp::ShardMerger merger;
  for (std::size_t i = 0; i < 3; ++i)
    merger.add_store(exp::shard_store_path(canonical, i, 3));
  const auto report = merger.merge_to(canonical);
  EXPECT_EQ(report.records, configs.size());
  EXPECT_EQ(report.duplicates_dropped, 0u);
  EXPECT_EQ(read_file(serial), read_file(canonical));

  std::remove(serial.c_str());
  remove_run_files(canonical, 3);
}

TEST(ShardPlan, JobsMergedIntoCanonicalStoreAreNotReRun) {
  const auto configs = small_sweep();
  const auto canonical = temp_path("extra_resume.jsonl");
  remove_run_files(canonical, 2);

  // Round 1 completed and merged; the per-shard stores were cleaned up.
  for (std::size_t i = 0; i < 2; ++i)
    ASSERT_TRUE(run_shard_worker(configs, canonical, i, 2).report.ok());
  exp::ShardMerger merger;
  for (std::size_t i = 0; i < 2; ++i) {
    const auto store = exp::shard_store_path(canonical, i, 2);
    merger.add_store(store);
    std::remove(store.c_str());
  }
  ASSERT_EQ(merger.merge_to(canonical).records, configs.size());

  // Crash detection consults the canonical store as well.
  exp::JobQueue queue(configs);
  const exp::ShardPlan plan(queue, 2);
  EXPECT_TRUE(
      plan.incomplete_shards(canonical,
                             exp::load_completed_hashes(canonical))
          .empty());

  // A resumed worker skips everything via extra_resume_stores.
  const auto resumed = run_shard_worker(configs, canonical, 0, 2, true);
  EXPECT_TRUE(resumed.report.ok());
  EXPECT_EQ(resumed.report.executed, 0u);
  EXPECT_EQ(resumed.report.skipped, plan.shard_hashes(0).size());

  remove_run_files(canonical, 2);
}

// ----------------------------------------------- lease files & partition --

TEST(LeaseFile, RoundTripsAndRejectsMalformed) {
  const auto path = temp_path("lease_roundtrip");
  exp::Lease lease;
  lease.generation = 7;
  lease.begin = 12;
  lease.end = 40;
  exp::write_lease_file(path, lease);
  const auto back = exp::read_lease_file(path);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->generation, 7u);
  EXPECT_EQ(back->begin, 12u);
  EXPECT_EQ(back->end, 40u);

  EXPECT_FALSE(exp::read_lease_file(temp_path("lease_missing")).has_value());
  for (const char* bad : {"", "v2 1 0 4", "v1 1 9 4", "v1 nonsense"}) {
    std::ofstream out(path, std::ios::trunc);
    out << bad << "\n";
    out.close();
    EXPECT_FALSE(exp::read_lease_file(path).has_value()) << bad;
  }
  std::remove(path.c_str());
}

TEST(LeaseFile, ChecksumMismatchReadsAsTornAndBumpsTheCounter) {
  const auto path = temp_path("lease_torn");

  // A torn write can leave a line whose prefix parses as plausible
  // numbers; only the checksum betrays it. Valid "v2" shape, wrong sum.
  {
    std::ofstream out(path, std::ios::trunc);
    out << "v2 7 12 40 deadbeefdeadbeef\n";
  }
  const auto before = exp::lease_file_torn_reads();
  EXPECT_FALSE(exp::read_lease_file(path).has_value());
  EXPECT_EQ(exp::lease_file_torn_reads(), before + 1);

  // Pre-checksum "v1" files have no sum to verify: still readable, and
  // not counted as torn.
  {
    std::ofstream out(path, std::ios::trunc);
    out << "v1 7 12 40\n";
  }
  const auto v1 = exp::read_lease_file(path);
  ASSERT_TRUE(v1.has_value());
  EXPECT_EQ(v1->generation, 7u);
  EXPECT_EQ(v1->begin, 12u);
  EXPECT_EQ(v1->end, 40u);
  EXPECT_EQ(exp::lease_file_torn_reads(), before + 1);

  // A rewrite through the real writer repairs the file in place.
  exp::Lease lease;
  lease.generation = 8;
  lease.begin = 12;
  lease.end = 40;
  exp::write_lease_file(path, lease);
  const auto repaired = exp::read_lease_file(path);
  ASSERT_TRUE(repaired.has_value());
  EXPECT_EQ(repaired->generation, 8u);
  EXPECT_EQ(exp::lease_file_torn_reads(), before + 1);

  std::remove(path.c_str());
}

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

TEST(JobQueue, RetainRangeMatchesReferenceModelAndTilesTheQueue) {
  const auto configs = small_sweep();
  std::mt19937 rng(987);
  for (int trial = 0; trial < 50; ++trial) {
    const std::size_t begin = rng() % (configs.size() + 2);
    const std::size_t end = rng() % (configs.size() + 2);
    exp::JobQueue q(configs);
    q.retain_range(begin, end);
    // Reference model: filter the enumerated sweep by index directly.
    std::vector<std::size_t> expected;
    for (std::size_t i = 0; i < configs.size(); ++i)
      if (i >= begin && i < end) expected.push_back(i);
    ASSERT_EQ(q.size(), expected.size()) << begin << ".." << end;
    for (std::size_t pos = 0; pos < q.size(); ++pos)
      EXPECT_EQ(q.job(pos).index, expected[pos]);
  }

  // A LeaseTable partition applied through retain_range covers the queue
  // exactly once — the lease analogue of the retain_shard disjointness
  // test above, for random slot counts.
  for (const std::size_t slots : {1u, 2u, 3u, 5u, 18u, 30u}) {
    const exp::LeaseTable table(configs.size(), slots);
    std::vector<int> owners(configs.size(), 0);
    for (std::size_t k = 0; k < table.slots(); ++k) {
      exp::JobQueue q(configs);
      q.retain_range(table.lease(k).begin, table.lease(k).end);
      EXPECT_EQ(q.size(), table.lease(k).size());
      for (std::size_t pos = 0; pos < q.size(); ++pos)
        ++owners[q.job(pos).index];
    }
    for (std::size_t i = 0; i < owners.size(); ++i)
      EXPECT_EQ(owners[i], 1) << "job " << i << " with " << slots << " slots";
  }
}

TEST(JobQueue, RetainShardAgreesWithShardPlanReferenceModel) {
  const auto configs = small_sweep();
  std::mt19937 rng(55);
  for (int trial = 0; trial < 20; ++trial) {
    const std::size_t count = 1 + rng() % 9;
    exp::JobQueue full(configs);
    const exp::ShardPlan plan(full, count);
    for (std::size_t i = 0; i < count; ++i) {
      exp::JobQueue q(configs);
      q.retain_shard(i, count);
      // The plan's per-shard hash list is the reference model: same jobs,
      // same order.
      ASSERT_EQ(q.size(), plan.shard_hashes(i).size());
      for (std::size_t pos = 0; pos < q.size(); ++pos)
        EXPECT_EQ(q.job(pos).content_hash, plan.shard_hashes(i)[pos]);
    }
  }
}

// ------------------------------------------------------ heartbeat monitor --

TEST(HeartbeatMonitor, DetectsStallsOnlyAfterTheTimeout) {
  using namespace std::chrono_literals;
  const auto t0 = std::chrono::steady_clock::time_point{};
  exp::HeartbeatMonitor hb(100ms);

  // Unarmed slots are never stale.
  EXPECT_FALSE(hb.stale(0, t0 + 1h));

  hb.start(0, t0);
  EXPECT_FALSE(hb.stale(0, t0 + 99ms));
  EXPECT_TRUE(hb.stale(0, t0 + 101ms));  // no heartbeat since spawn

  // A changing value keeps the slot fresh; an unchanged one goes stale.
  hb.start(0, t0);
  hb.observe(0, 1000, t0 + 50ms);
  EXPECT_FALSE(hb.stale(0, t0 + 140ms));
  hb.observe(0, 2000, t0 + 150ms);
  hb.observe(0, 2000, t0 + 240ms);  // same mtime: no progress
  EXPECT_FALSE(hb.stale(0, t0 + 240ms));
  EXPECT_TRUE(hb.stale(0, t0 + 260ms));

  // A missing heartbeat file (sentinel -1) is itself a value: it only
  // counts as life once, not every poll.
  hb.start(1, t0);
  hb.observe(1, -1, t0 + 10ms);
  hb.observe(1, -1, t0 + 90ms);
  EXPECT_TRUE(hb.stale(1, t0 + 120ms));

  // stop() disarms; a later start() re-arms from the new baseline.
  hb.stop(0);
  EXPECT_FALSE(hb.stale(0, t0 + 10h));
  hb.start(0, t0 + 10h);
  EXPECT_FALSE(hb.stale(0, t0 + 10h + 99ms));
  EXPECT_TRUE(hb.stale(0, t0 + 10h + 101ms));
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

TEST(HeartbeatMonitor, ObserveYieldsInterProgressIntervals) {
  using namespace std::chrono_literals;
  const auto t0 = std::chrono::steady_clock::time_point{};
  exp::HeartbeatMonitor hb(1s);

  // Unarmed slots never yield intervals.
  EXPECT_FALSE(hb.observe(0, 100, t0).has_value());

  hb.start(0, t0);
  // The first change after arming is spawn latency, not job pace.
  EXPECT_FALSE(hb.observe(0, 100, t0 + 250ms).has_value());
  // An unchanged value is not progress.
  EXPECT_FALSE(hb.observe(0, 100, t0 + 400ms).has_value());
  // From the second change on, the inter-progress interval comes back.
  const auto a = hb.observe(0, 200, t0 + 750ms);
  ASSERT_TRUE(a.has_value());
  EXPECT_NEAR(*a, 0.5, 1e-9);
  const auto b = hb.observe(0, 300, t0 + 850ms);
  ASSERT_TRUE(b.has_value());
  EXPECT_NEAR(*b, 0.1, 1e-9);

  // set_timeout re-tunes staleness online (the adaptive path).
  EXPECT_FALSE(hb.stale(0, t0 + 850ms + 999ms));
  EXPECT_TRUE(hb.stale(0, t0 + 850ms + 1001ms));
  hb.set_timeout(100ms);
  EXPECT_TRUE(hb.stale(0, t0 + 850ms + 101ms));
  hb.set_timeout(10s);
  EXPECT_FALSE(hb.stale(0, t0 + 850ms + 5s));

  // Re-arming resets the spawn-latency skip.
  hb.start(0, t0 + 10s);
  EXPECT_FALSE(hb.observe(0, 400, t0 + 10s + 50ms).has_value());
  EXPECT_TRUE(hb.observe(0, 500, t0 + 10s + 150ms).has_value());
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

  // Seeding from an empty distribution is a no-op too.
  exp::DurationStats empty;
  at.seed(empty);
  EXPECT_TRUE(std::isinf(at.timeout_seconds()));
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

TEST(AdaptiveTimeout, SeedsFromAPriorRunsDistribution) {
  exp::DurationStats stats;
  stats.count = 18;
  stats.p99_s = 2.0;
  stats.max_s = 2.5;
  exp::AdaptiveTimeout at;
  at.seed(stats);
  EXPECT_EQ(at.samples(), 2u);  // p99 + max stand in for the prior run
  EXPECT_DOUBLE_EQ(at.timeout_seconds(), 20.0);  // max(2.5 * 8, 5.0)
}

// -------------------------------------------- empty shards & empty leases --

TEST(ShardWorkers, EmptyStaticShardExitsCleanlyWithValidEmptyStore) {
  // More shards than jobs: some '--shard i/N' workers own zero jobs (the
  // cross-host launcher does not know the hash distribution up front).
  // They must succeed and leave a valid, empty store.
  const auto configs = small_sweep();
  const std::size_t count = configs.size() + 7;  // pigeonhole: empty shards
  const auto canonical = temp_path("empty_shard.jsonl");
  remove_run_files(canonical, count);

  exp::JobQueue probe(configs);
  const exp::ShardPlan plan(probe, count);
  std::size_t empty_shard = count;
  for (std::size_t i = 0; i < count; ++i)
    if (plan.shard_hashes(i).empty()) empty_shard = i;
  ASSERT_LT(empty_shard, count);

  const auto outcome =
      run_shard_worker(configs, canonical, empty_shard, count);
  EXPECT_TRUE(outcome.report.ok());
  EXPECT_EQ(outcome.report.total_jobs, 0u);
  EXPECT_EQ(outcome.report.executed, 0u);
  const auto store = exp::shard_store_path(canonical, empty_shard, count);
  EXPECT_TRUE(oracle::util::file_exists(store));
  EXPECT_TRUE(read_file(store).empty());
  EXPECT_TRUE(exp::load_completed_hashes(store).empty());
  // And the merger treats the empty store as a valid no-op input.
  exp::ShardMerger merger;
  merger.add_store(store);
  EXPECT_EQ(merger.merge_to(canonical).records, 0u);

  remove_run_files(canonical, count);
}

TEST(ShardWorkers, EmptyLeaseWorkerExitsCleanlyWithValidEmptyStore) {
  const auto configs = small_sweep();
  const auto canonical = temp_path("empty_lease.jsonl");
  const auto store = exp::worker_store_path(canonical, 0, 2);
  std::remove(store.c_str());

  exp::LeaseWorkerOptions wopt;
  wopt.canonical_out = canonical;
  wopt.slot = 0;
  wopt.slot_count = 2;

  // Case 1: no lease file at all (supervisor died before writing it).
  auto report = exp::run_lease_worker(configs, wopt);
  EXPECT_TRUE(report.ok());
  EXPECT_EQ(report.total_jobs, 0u);
  EXPECT_TRUE(oracle::util::file_exists(store));
  EXPECT_TRUE(read_file(store).empty());

  // Case 2: an explicitly empty lease range.
  exp::Lease lease;
  lease.begin = lease.end = 5;
  exp::write_lease_file(exp::worker_lease_path(canonical, 0, 2), lease);
  report = exp::run_lease_worker(configs, wopt);
  EXPECT_TRUE(report.ok());
  EXPECT_EQ(report.total_jobs, 0u);
  EXPECT_TRUE(read_file(store).empty());

  std::remove(store.c_str());
  std::remove(exp::worker_lease_path(canonical, 0, 2).c_str());
  std::remove(exp::worker_heartbeat_path(canonical, 0, 2).c_str());
}

// ---------------------------------------------------------- process layer --

#if !defined(_WIN32)

TEST(ShardProcesses, SpawnAndWaitReportsExitCodesAndSignals) {
  const std::vector<std::vector<std::string>> argvs = {
      {"/bin/sh", "-c", "exit 0"},
      {"/bin/sh", "-c", "exit 3"},
      {"/bin/sh", "-c", "kill -9 $$"},
  };
  const auto exits = exp::spawn_and_wait(argvs, {0, 1, 2});
  ASSERT_EQ(exits.size(), 3u);
  EXPECT_TRUE(exits[0].ok());
  EXPECT_EQ(exits[0].exit_code, 0);
  EXPECT_FALSE(exits[1].ok());
  EXPECT_EQ(exits[1].exit_code, 3);
  EXPECT_FALSE(exits[2].ok());
  EXPECT_EQ(exits[2].term_signal, 9);
  EXPECT_EQ(exits[2].shard, 2u);
}

TEST(ShardProcesses, SelfExecPathResolvesToARealFile) {
  const auto path = exp::self_exec_path("fallback");
  std::ifstream probe(path, std::ios::binary);
  EXPECT_TRUE(probe.good()) << path;
}

#endif  // !_WIN32

}  // namespace
}  // namespace oracle
