// exp::StoreIndex — the content-hash index behind the resident oracle
// service: build-from-store round-trips against a real batch run,
// incremental append visibility through refresh(), first-wins dedup
// across overlapping stores, torn-tail tolerance (a half-written record
// is invisible until its newline lands, and a torn record a resume append
// newline-terminated is corrupt, not cached), corrupt-line accounting,
// truncation and replacement recovery, and the parsed rows kept with
// entries: dropped with them, and filled by concurrent readers while a
// writer appends.

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <fstream>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/sweep.hpp"
#include "exp/aggregate.hpp"
#include "exp/batch.hpp"
#include "exp/job_queue.hpp"
#include "exp/result_sink.hpp"
#include "exp/store_index.hpp"
#include "stats/run_result.hpp"

namespace oracle {
namespace {

std::string temp_path(const std::string& name) {
  // Pid-unique: ctest runs each TEST as its own process, concurrently.
  return testing::TempDir() + "oracle_sidx_" + std::to_string(::getpid()) +
         "_" + name;
}

void write_file(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << content;
}

void append_file(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary | std::ios::app);
  out << content;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::string s((std::istreambuf_iterator<char>(in)),
                std::istreambuf_iterator<char>());
  return s;
}

/// A minimal line the index accepts: the writer's `"hash":"<16 hex>"`
/// signature plus a tag so byte-identity checks can tell lines apart.
std::string fake_record(const std::string& hex16, const std::string& tag) {
  return "{\"job\":0,\"hash\":\"" + hex16 + "\",\"tag\":\"" + tag + "\"}";
}

/// A complete record (one parse_jsonl_record accepts) for `hash`, in grid
/// point `strategy`, with the speedup the test chooses.
std::string real_record(std::uint64_t hash, double speedup,
                        const std::string& strategy = "cwn") {
  exp::ExperimentJob job;
  job.content_hash = hash;
  stats::RunResult r;
  r.topology = "grid-4x4";
  r.strategy = strategy;
  r.workload = "fib-8";
  r.num_pes = 16;
  r.speedup = speedup;
  r.completion_time = static_cast<sim::SimTime>(1000.0 / speedup);
  return exp::jsonl_record(job, r);
}

/// The speedup a cached row holds.
double row_speedup(const exp::Aggregator::Row* row) {
  const auto& names = exp::Aggregator::metric_names();
  const auto at = std::find(names.begin(), names.end(), "speedup");
  return row->values[static_cast<std::size_t>(at - names.begin())];
}

TEST(StoreIndex, BuildFromRealStoreRoundTrips) {
  const auto store = temp_path("real.jsonl");
  std::remove(store.c_str());

  const auto configs = core::SweepBuilder()
                           .topologies({"grid:4x4"})
                           .strategies({"cwn:radius=3,horizon=1", "random"})
                           .workloads({"fib:8"})
                           .seeds({1, 2})
                           .build();
  exp::BatchOptions opt;
  opt.jsonl_path = store;
  opt.collect = false;
  const auto outcome = exp::run_batch(configs, opt);
  ASSERT_TRUE(outcome.report.ok());

  exp::StoreIndex index;
  EXPECT_EQ(index.add_store(store), configs.size());
  EXPECT_EQ(index.size(), configs.size());
  EXPECT_EQ(index.duplicates(), 0u);
  EXPECT_EQ(index.corrupt_lines(), 0u);
  EXPECT_EQ(index.indexed_bytes(), read_file(store).size());

  // Every job's content hash resolves, and fetch_line returns the exact
  // stored bytes — the line at the recorded offset in the file.
  const std::string raw = read_file(store);
  const exp::JobQueue queue(configs);
  for (const auto& job : queue.jobs()) {
    ASSERT_TRUE(index.contains(job.content_hash));
    const auto entry = index.lookup(job.content_hash);
    ASSERT_TRUE(entry.has_value());
    const auto line = index.fetch_line(job.content_hash);
    ASSERT_TRUE(line.has_value());
    EXPECT_EQ(*line, raw.substr(entry->offset, entry->length));
    EXPECT_EQ(raw[entry->offset + entry->length], '\n');
  }

  // Re-adding the same path is a refresh, not a duplicate registration.
  EXPECT_EQ(index.add_store(store), 0u);
  EXPECT_EQ(index.store_count(), 1u);
}

TEST(StoreIndex, IncrementalAppendBecomesVisibleOnRefresh) {
  const auto store = temp_path("append.jsonl");
  write_file(store, fake_record("0000000000000001", "a") + "\n" +
                        fake_record("0000000000000002", "b") + "\n");

  exp::StoreIndex index;
  EXPECT_EQ(index.add_store(store), 2u);
  EXPECT_EQ(index.refresh(), 0u);  // nothing new: frontier is at EOF

  append_file(store, fake_record("0000000000000003", "c") + "\n");
  EXPECT_FALSE(index.contains(0x3));
  EXPECT_EQ(index.refresh(), 1u);
  EXPECT_TRUE(index.contains(0x3));
  EXPECT_EQ(index.fetch_line(0x3), fake_record("0000000000000003", "c"));
  // The earlier entries were not rescanned or disturbed.
  EXPECT_EQ(index.fetch_line(0x1), fake_record("0000000000000001", "a"));
  EXPECT_EQ(index.size(), 3u);
}

TEST(StoreIndex, OverlappingStoresKeepFirstOccurrence) {
  const auto a = temp_path("dup_a.jsonl");
  const auto b = temp_path("dup_b.jsonl");
  write_file(a, fake_record("00000000000000aa", "from-a") + "\n");
  write_file(b, fake_record("00000000000000aa", "from-b") + "\n" +
                    fake_record("00000000000000bb", "only-b") + "\n");

  exp::StoreIndex index;
  EXPECT_EQ(index.add_store(a), 1u);
  EXPECT_EQ(index.add_store(b), 1u);  // the shared hash is a duplicate
  EXPECT_EQ(index.size(), 2u);
  EXPECT_EQ(index.duplicates(), 1u);
  // First registration order wins — matching Aggregator::add_line's
  // first-wins dedup, so cache answers and re-aggregation agree.
  EXPECT_EQ(index.fetch_line(0xaa), fake_record("00000000000000aa", "from-a"));
  EXPECT_EQ(index.fetch_line(0xbb), fake_record("00000000000000bb", "only-b"));

  // A duplicate appended later within one store counts too.
  append_file(b, fake_record("00000000000000aa", "again") + "\n");
  EXPECT_EQ(index.refresh(), 0u);
  EXPECT_EQ(index.duplicates(), 2u);
  EXPECT_EQ(index.fetch_line(0xaa), fake_record("00000000000000aa", "from-a"));
}

TEST(StoreIndex, TornTailIsInvisibleUntilCompleted) {
  const auto store = temp_path("torn.jsonl");
  const std::string full = fake_record("0000000000000010", "whole");
  const std::string torn = fake_record("0000000000000011", "torn");
  // A killed writer left half a record with no newline.
  write_file(store, full + "\n" + torn.substr(0, torn.size() / 2));

  exp::StoreIndex index;
  EXPECT_EQ(index.add_store(store), 1u);
  EXPECT_TRUE(index.contains(0x10));
  EXPECT_FALSE(index.contains(0x11));
  EXPECT_EQ(index.indexed_bytes(), full.size() + 1);

  // Repeated refreshes never advance past the torn tail...
  EXPECT_EQ(index.refresh(), 0u);
  EXPECT_FALSE(index.contains(0x11));

  // ...until the writer finishes the line, at which point exactly the
  // completed record (and anything after it) appears.
  append_file(store, torn.substr(torn.size() / 2) + "\n" +
                         fake_record("0000000000000012", "next") + "\n");
  EXPECT_EQ(index.refresh(), 2u);
  EXPECT_TRUE(index.contains(0x11));
  EXPECT_TRUE(index.contains(0x12));
  EXPECT_EQ(index.fetch_line(0x11), torn);
}

TEST(StoreIndex, TornRecordWithIntactHashIsNotIndexed) {
  const auto store = temp_path("torn_hash.jsonl");
  const exp::JobQueue queue(core::SweepBuilder()
                                .topologies({"grid:4x4"})
                                .strategies({"random"})
                                .workloads({"fib:8"})
                                .seeds({1, 2, 3})
                                .build());
  const auto record = [&](std::size_t i) {
    stats::RunResult r;
    r.topology = "grid-4x4";
    r.strategy = "random";
    r.workload = "fib:8";
    r.seed = queue.job(i).config.machine.seed;
    return r;
  };
  // Record 0 whole, record 1 cut after its "strategy" key by a killed
  // writer; the next run's resume append newline-terminates the half
  // record before it writes record 2.
  const std::string one = exp::jsonl_record(queue.job(1), record(1));
  write_file(store, exp::jsonl_record(queue.job(0), record(0)) + "\n" +
                        one.substr(0, one.find("\"strategy\"") + 10));
  {
    exp::JsonlSink sink(store, /*append=*/true);
    sink.write(queue.job(2), record(2));
    sink.flush();
  }

  exp::StoreIndex index;
  EXPECT_EQ(index.add_store(store), 2u);
  EXPECT_EQ(index.size(), 2u);
  EXPECT_EQ(index.corrupt_lines(), 1u);
  EXPECT_TRUE(index.contains(queue.job(0).content_hash));
  EXPECT_FALSE(index.contains(queue.job(1).content_hash));
  EXPECT_TRUE(index.contains(queue.job(2).content_hash));
  // The index and the resume scan agree on what the store holds.
  EXPECT_EQ(exp::load_completed_hashes(store).size(), index.size());
  for (std::size_t i : {0u, 2u})
    EXPECT_TRUE(exp::parse_jsonl_record(
                    *index.fetch_line(queue.job(i).content_hash))
                    .has_value());
}

TEST(StoreIndex, CorruptLinesAreCountedAndSkipped) {
  const auto store = temp_path("corrupt.jsonl");
  write_file(store, "not json at all\n" +
                        fake_record("0000000000000020", "good") + "\n" +
                        "{\"hash\":\"tooshort\"}\n");

  exp::StoreIndex index;
  EXPECT_EQ(index.add_store(store), 1u);
  EXPECT_EQ(index.corrupt_lines(), 2u);
  EXPECT_TRUE(index.contains(0x20));
}

TEST(StoreIndex, MissingStoreRegistersAndFillsInLater) {
  const auto store = temp_path("late.jsonl");
  std::remove(store.c_str());

  exp::StoreIndex index;
  EXPECT_EQ(index.add_store(store), 0u);
  EXPECT_EQ(index.store_count(), 1u);

  write_file(store, fake_record("0000000000000030", "late") + "\n");
  EXPECT_EQ(index.refresh(), 1u);
  EXPECT_TRUE(index.contains(0x30));
}

TEST(StoreIndex, TruncatedStoreIsReindexedFromScratch) {
  const auto store = temp_path("trunc.jsonl");
  write_file(store, fake_record("0000000000000040", "one") + "\n" +
                        fake_record("0000000000000041", "two") + "\n");

  append_file(store, real_record(0x43, 1.5) + "\n");

  exp::StoreIndex index;
  EXPECT_EQ(index.add_store(store), 3u);
  // A query read 0x43, so its parsed row is kept with the entry.
  ASSERT_NE(index.row(0x43), nullptr);
  EXPECT_EQ(row_speedup(index.row(0x43)), 1.5);
  EXPECT_EQ(index.row(0x40), nullptr);  // not a record: no row

  // The store is rewritten shorter (e.g. a fresh run replaced it): stale
  // entries must not survive to serve garbage bytes, and neither may the
  // rows read before: 0x43 now names another record.
  write_file(store, fake_record("0000000000000042", "new") + "\n" +
                        real_record(0x43, 2.5) + "\n");
  index.refresh();
  EXPECT_FALSE(index.contains(0x40));
  EXPECT_FALSE(index.contains(0x41));
  EXPECT_TRUE(index.contains(0x42));
  EXPECT_EQ(index.fetch_line(0x42), fake_record("0000000000000042", "new"));
  ASSERT_NE(index.row(0x43), nullptr);
  EXPECT_EQ(row_speedup(index.row(0x43)), 2.5);
}

TEST(StoreIndex, ReplacedStoreIsReindexedFromScratch) {
  const auto store = temp_path("replaced.jsonl");
  const auto next = temp_path("replaced.jsonl.next");
  write_file(store, fake_record("0000000000000050", "old") + "\n" +
                        real_record(0x53, 1.25) + "\n");

  exp::StoreIndex index;
  EXPECT_EQ(index.add_store(store), 2u);
  ASSERT_NE(index.row(0x53), nullptr);
  EXPECT_EQ(row_speedup(index.row(0x53)), 1.25);

  // A rename replaces the store with a longer file (e.g. a merge's atomic
  // tmp + rename): the held handle still names the old bytes, so the
  // index must notice the new file and index it from offset 0. The row
  // read from the old file goes with it: 0x53 now folds the new record.
  write_file(next, fake_record("0000000000000051", "new-first") + "\n" +
                       fake_record("0000000000000052", "new-second") + "\n" +
                       real_record(0x53, 3.75) + "\n");
  ASSERT_EQ(std::rename(next.c_str(), store.c_str()), 0);
  EXPECT_EQ(index.refresh(), 3u);
  EXPECT_FALSE(index.contains(0x50));
  EXPECT_EQ(index.fetch_line(0x51),
            fake_record("0000000000000051", "new-first"));
  EXPECT_EQ(index.fetch_line(0x52),
            fake_record("0000000000000052", "new-second"));
  ASSERT_NE(index.row(0x53), nullptr);
  EXPECT_EQ(row_speedup(index.row(0x53)), 3.75);
}

TEST(StoreIndex, ConcurrentRowFillsMatchAggregateWhileAWriterAppends) {
  // The service's locking: readers fold rows under the shared side (the
  // first reads fill them, racing one another), and a writer appends
  // records and refreshes under the exclusive side. Every reader's answer
  // must equal `oracle_batch aggregate` over the records it names.
  const auto store = temp_path("concurrent_rows.jsonl");
  constexpr std::uint64_t kRecords = 96;
  std::string initial;
  for (std::uint64_t h = 1; h <= kRecords; ++h)
    initial += real_record(h, 1.0 + static_cast<double>(h % 17) / 4.0,
                           h % 3 == 0 ? "gm" : "cwn") +
               "\n";
  write_file(store, initial);
  const auto reference_groups =
      exp::Aggregator::from_jsonl_files({store}).summarize();
  const auto ref_table =
      exp::Aggregator::to_table(reference_groups, "speedup");
  const auto ref_csv = exp::Aggregator::to_csv(reference_groups);

  exp::StoreIndex index;
  ASSERT_EQ(index.add_store(store), kRecords);
  std::shared_mutex mu;
  std::atomic<bool> go{false};
  std::atomic<int> mismatches{0};

  constexpr int kReaders = 4;
  constexpr int kAppends = 24;
  std::vector<std::thread> threads;
  for (int r = 0; r < kReaders; ++r) {
    threads.emplace_back([&, r] {
      while (!go.load()) std::this_thread::yield();
      for (int round = 0; round < 40; ++round) {
        exp::Aggregator agg;
        {
          std::shared_lock<std::shared_mutex> lk(mu);
          for (std::uint64_t h = 1; h <= kRecords; ++h)
            if (const auto* row = index.row(h)) agg.add_row(*row);
        }
        // Alternate the rendered subset and every metric.
        const bool all = (round + r) % 2 == 0;
        const auto groups = all ? agg.summarize() : agg.summarize({"speedup"});
        if (exp::Aggregator::to_table(groups, "speedup") != ref_table ||
            (all && exp::Aggregator::to_csv(groups) != ref_csv))
          mismatches.fetch_add(1);
      }
    });
  }
  threads.emplace_back([&] {
    while (!go.load()) std::this_thread::yield();
    for (int i = 0; i < kAppends; ++i) {
      append_file(store, real_record(1000 + static_cast<std::uint64_t>(i),
                                     2.0, "random") +
                             "\n");
      std::unique_lock<std::shared_mutex> lk(mu);
      index.refresh();
    }
  });
  go.store(true);
  for (auto& t : threads) t.join();
  EXPECT_EQ(mismatches.load(), 0);

  // Folding every cached row in store order reproduces the whole store's
  // aggregate, appended records included.
  ASSERT_EQ(index.size(), kRecords + kAppends);
  exp::Aggregator all;
  for (std::uint64_t h = 1; h <= kRecords; ++h) all.add_row(*index.row(h));
  for (std::uint64_t i = 0; i < kAppends; ++i)
    all.add_row(*index.row(1000 + i));
  EXPECT_EQ(exp::Aggregator::to_csv(all.summarize()),
            exp::Aggregator::to_csv(
                exp::Aggregator::from_jsonl_files({store}).summarize()));
}

}  // namespace
}  // namespace oracle
