// exp::StoreIndex — the content-hash index behind the resident oracle
// service: build-from-store round-trips against a real batch run,
// incremental append visibility through refresh(), first-wins dedup
// across overlapping stores, torn-tail tolerance (a half-written record
// is invisible until its newline lands), corrupt-line accounting, and
// truncation recovery.

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "core/sweep.hpp"
#include "exp/batch.hpp"
#include "exp/job_queue.hpp"
#include "exp/store_index.hpp"

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

  exp::StoreIndex index;
  EXPECT_EQ(index.add_store(store), 2u);

  // The store is rewritten shorter (e.g. a fresh run replaced it): stale
  // entries must not survive to serve garbage bytes.
  write_file(store, fake_record("0000000000000042", "new") + "\n");
  index.refresh();
  EXPECT_FALSE(index.contains(0x40));
  EXPECT_FALSE(index.contains(0x41));
  EXPECT_TRUE(index.contains(0x42));
  EXPECT_EQ(index.fetch_line(0x42), fake_record("0000000000000042", "new"));
}

}  // namespace
}  // namespace oracle
