// Tests for the batch experiment engine (src/exp/): job identity hashing,
// per-job seed derivation, the job queue, JSONL/CSV sinks and round-trips,
// resume from the stores, the ordered committer, and the engine's
// determinism guarantee (byte-identical JSONL regardless of worker count).

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstring>
#include <limits>
#include <random>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>
#include <vector>

#include "core/simulator.hpp"
#include "core/sweep.hpp"
#include "exp/exp.hpp"
#include "util/file_util.hpp"
#include "util/rng.hpp"

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
  return testing::TempDir() + "oracle_batch_" + name;
}

std::size_t line_count(const std::string& path) {
  std::ifstream in(path);
  std::size_t n = 0;
  std::string line;
  while (std::getline(in, line)) ++n;
  return n;
}

// ----------------------------------------------------------- seed derive --

TEST(RngDerive, DeriveSeedIsPureAndDeterministic) {
  EXPECT_EQ(Rng::derive_seed(42, 0), Rng::derive_seed(42, 0));
  EXPECT_EQ(Rng::derive_seed(42, 7), Rng::derive_seed(42, 7));
  EXPECT_NE(Rng::derive_seed(42, 0), Rng::derive_seed(42, 1));
  EXPECT_NE(Rng::derive_seed(42, 0), Rng::derive_seed(43, 0));
}

TEST(RngDerive, DerivedStreamsAreIndependent) {
  Rng a(Rng::derive_seed(9, 0)), b(Rng::derive_seed(9, 1));
  int same = 0;
  for (int i = 0; i < 1000; ++i)
    if (a.next() == b.next()) ++same;
  EXPECT_EQ(same, 0);
}

TEST(RngDerive, MemberDeriveDoesNotAdvanceParent) {
  Rng x(77), y(77);
  Rng child = x.derive(3);
  (void)child.next();
  // x must still be in lockstep with the untouched y.
  for (int i = 0; i < 100; ++i) ASSERT_EQ(x.next(), y.next());
  // And deriving the same index twice yields the same stream.
  Rng c1 = y.derive(3), c2 = y.derive(3);
  for (int i = 0; i < 100; ++i) ASSERT_EQ(c1.next(), c2.next());
}

// ------------------------------------------------------------ job hashes --

TEST(JobHash, SensitiveToEveryAxisAndSeed) {
  const auto base = small_config();
  EXPECT_EQ(exp::job_content_hash(base), exp::job_content_hash(base));

  auto topo = base;
  topo.topology = "grid:6x6";
  auto strat = base;
  strat.strategy = "gm";
  auto wl = base;
  wl.workload = "fib:10";
  auto seed = base;
  seed.machine.seed = 2;
  auto cost = base;
  cost.costs.leaf_cost += 1;
  const auto h = exp::job_content_hash(base);
  EXPECT_NE(h, exp::job_content_hash(topo));
  EXPECT_NE(h, exp::job_content_hash(strat));
  EXPECT_NE(h, exp::job_content_hash(wl));
  EXPECT_NE(h, exp::job_content_hash(seed));
  EXPECT_NE(h, exp::job_content_hash(cost));
}

TEST(JobHash, HexRoundTrips) {
  for (std::uint64_t v : {0ULL, 1ULL, 0xdeadbeefcafef00dULL,
                          0xffffffffffffffffULL}) {
    std::uint64_t back = 0;
    ASSERT_TRUE(exp::parse_hash_hex(exp::hash_hex(v), back));
    EXPECT_EQ(back, v);
  }
  std::uint64_t out = 0;
  EXPECT_FALSE(exp::parse_hash_hex("xyz", out));
  EXPECT_FALSE(exp::parse_hash_hex("00112233445566", out));  // too short
}

// -------------------------------------------------------------- JobQueue --

TEST(JobQueue, AssignsStableIndicesAndHashes) {
  exp::JobQueue queue(small_sweep());
  ASSERT_EQ(queue.size(), 18u);
  for (std::size_t i = 0; i < queue.size(); ++i) {
    EXPECT_EQ(queue.job(i).index, i);
    EXPECT_EQ(queue.job(i).content_hash,
              exp::job_content_hash(queue.job(i).config));
  }
}

TEST(JobQueue, DeriveSeedsIsReproduciblePerIndex) {
  const exp::JobQueue a(small_sweep(), 99), b(small_sweep(), 99);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.job(i).config.machine.seed, Rng::derive_seed(99, i));
    EXPECT_EQ(a.job(i).content_hash, b.job(i).content_hash);
  }
}

TEST(JobQueue, SkipCompletedPreservesOriginalIndices) {
  exp::JobQueue queue(small_sweep());
  const auto skip_hash = queue.job(4).content_hash;
  EXPECT_EQ(queue.skip_completed({skip_hash}), 1u);
  ASSERT_EQ(queue.size(), 17u);
  // Index 4 is gone; every surviving job keeps its sweep index.
  for (std::size_t pos = 0; pos < queue.size(); ++pos)
    EXPECT_EQ(queue.job(pos).index, pos < 4 ? pos : pos + 1);
}

TEST(JobQueue, ConcurrentClaimsPartitionTheQueue) {
  exp::JobQueue queue(small_sweep());
  std::vector<char> seen(queue.size(), 0);
  std::mutex m;
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      while (const auto pos = queue.claim()) {
        std::lock_guard<std::mutex> lock(m);
        EXPECT_EQ(seen[*pos], 0) << "position claimed twice";
        seen[*pos] = 1;
      }
    });
  }
  for (auto& t : threads) t.join();
  for (const char s : seen) EXPECT_EQ(s, 1);
}

// ------------------------------------------------------- JSONL round trip --

TEST(Jsonl, RecordRoundTrips) {
  exp::ExperimentJob job;
  job.index = 7;
  job.config = small_config();
  job.content_hash = exp::job_content_hash(job.config);
  const auto result = core::run_experiment(job.config);

  const auto rec = exp::parse_jsonl_record(exp::jsonl_record(job, result));
  ASSERT_TRUE(rec.has_value());
  EXPECT_EQ(rec->job_index, 7u);
  EXPECT_EQ(rec->content_hash, job.content_hash);
  const auto& r = rec->result;
  EXPECT_EQ(r.topology, result.topology);
  EXPECT_EQ(r.strategy, result.strategy);
  EXPECT_EQ(r.workload, result.workload);
  EXPECT_EQ(r.num_pes, result.num_pes);
  EXPECT_EQ(r.seed, result.seed);
  EXPECT_EQ(r.completion_time, result.completion_time);
  EXPECT_EQ(r.goals_executed, result.goals_executed);
  EXPECT_EQ(r.total_work, result.total_work);
  EXPECT_EQ(r.critical_path, result.critical_path);
  EXPECT_DOUBLE_EQ(r.avg_utilization, result.avg_utilization);
  EXPECT_DOUBLE_EQ(r.speedup, result.speedup);
  EXPECT_DOUBLE_EQ(r.utilization_cv, result.utilization_cv);
  EXPECT_DOUBLE_EQ(r.avg_goal_distance, result.avg_goal_distance);
  EXPECT_EQ(r.goal_transmissions, result.goal_transmissions);
  EXPECT_EQ(r.response_transmissions, result.response_transmissions);
  EXPECT_EQ(r.control_transmissions, result.control_transmissions);
  EXPECT_DOUBLE_EQ(r.avg_channel_utilization, result.avg_channel_utilization);
  EXPECT_DOUBLE_EQ(r.max_channel_utilization, result.max_channel_utilization);
  EXPECT_EQ(r.events_executed, result.events_executed);
}

TEST(Jsonl, RejectsTruncatedAndMalformedLines) {
  exp::ExperimentJob job;
  job.config = small_config();
  job.content_hash = exp::job_content_hash(job.config);
  const auto line = exp::jsonl_record(job, core::run_experiment(job.config));

  EXPECT_FALSE(exp::parse_jsonl_record("").has_value());
  EXPECT_FALSE(exp::parse_jsonl_record("not json").has_value());
  EXPECT_FALSE(exp::parse_jsonl_record("{}").has_value());
  // A record cut off mid-write (the kill -9 case).
  EXPECT_FALSE(
      exp::parse_jsonl_record(line.substr(0, line.size() / 2)).has_value());
}

TEST(Jsonl, LoadCompletedHashesSkipsCorruptLines) {
  exp::ExperimentJob job;
  job.config = small_config();
  job.content_hash = exp::job_content_hash(job.config);
  const auto line = exp::jsonl_record(job, core::run_experiment(job.config));

  const auto path = temp_path("corrupt.jsonl");
  {
    std::ofstream out(path, std::ios::trunc);
    out << line << "\ngarbage\n" << line.substr(0, 30);  // truncated tail
  }
  const auto done = exp::load_completed_hashes(path);
  EXPECT_EQ(done.size(), 1u);
  EXPECT_TRUE(done.contains(job.content_hash));
  EXPECT_TRUE(exp::load_completed_hashes(temp_path("missing.jsonl")).empty());
  std::remove(path.c_str());
}

// ------------------------------------------- JSONL parser property test --

/// Random text over the characters the JSONL escaping and the one-pass
/// parser's span scanning must get right.
std::string random_text(std::mt19937_64& rng) {
  static constexpr char kChars[] = {'a', 'Z', '7', '\\', '"', ',', '{',
                                    '}', ':', '\n', '\t', '\r', '\x01'};
  std::string s(rng() % 10, ' ');
  for (auto& c : s) c = kChars[rng() % std::size(kChars)];
  return s;
}

double random_double(std::mt19937_64& rng) {
  static const double kSpecial[] = {
      std::numeric_limits<double>::quiet_NaN(),
      std::numeric_limits<double>::infinity(),
      -std::numeric_limits<double>::infinity(),
      0.0,
      -0.0,
      std::numeric_limits<double>::denorm_min(),
      std::numeric_limits<double>::min(),
      std::numeric_limits<double>::max(),
      std::numeric_limits<double>::lowest(),
      -1.5};
  if (rng() % 2 == 0) return kSpecial[rng() % std::size(kSpecial)];
  const std::uint64_t bits = rng();
  double v = 0;
  std::memcpy(&v, &bits, sizeof v);
  return v;
}

/// 0, the extremes, or uniform bits — for any integer field type.
template <typename T>
T random_int(std::mt19937_64& rng) {
  switch (rng() % 4) {
    case 0: return std::numeric_limits<T>::min();
    case 1: return std::numeric_limits<T>::max();
    case 2: return T{0};
    default: return static_cast<T>(rng());
  }
}

struct RandomRecord {
  exp::ExperimentJob job;
  stats::RunResult result;
};

RandomRecord random_record(std::mt19937_64& rng) {
  RandomRecord rec;
  rec.job.index = random_int<std::uint64_t>(rng);
  rec.job.content_hash = random_int<std::uint64_t>(rng);
  auto& r = rec.result;
  r.topology = random_text(rng);
  r.strategy = random_text(rng);
  r.workload = random_text(rng);
  r.num_pes = random_int<std::uint32_t>(rng);
  r.seed = random_int<std::uint64_t>(rng);
  r.completion_time = random_int<sim::SimTime>(rng);
  r.goals_executed = random_int<std::uint64_t>(rng);
  r.total_work = random_int<sim::Duration>(rng);
  r.critical_path = random_int<sim::Duration>(rng);
  r.avg_utilization = random_double(rng);
  r.speedup = random_double(rng);
  r.utilization_cv = random_double(rng);
  r.max_min_utilization_gap = random_double(rng);
  r.avg_goal_distance = random_double(rng);
  r.goal_transmissions = random_int<std::uint64_t>(rng);
  r.response_transmissions = random_int<std::uint64_t>(rng);
  r.control_transmissions = random_int<std::uint64_t>(rng);
  r.avg_channel_utilization = random_double(rng);
  r.max_channel_utilization = random_double(rng);
  r.events_executed = random_int<std::uint64_t>(rng);
  return rec;
}

/// Every persisted field equal, NaN matching NaN. Returns "" or the name
/// of the first field that differs.
std::string first_difference(const RandomRecord& want,
                             const exp::JsonlRecord& got) {
  const auto same = [](double a, double b) {
    return std::isnan(a) ? std::isnan(b) : a == b;
  };
  const auto& a = want.result;
  const auto& b = got.result;
  if (got.job_index != want.job.index) return "job";
  if (got.content_hash != want.job.content_hash) return "hash";
  if (a.topology != b.topology) return "topology";
  if (a.strategy != b.strategy) return "strategy";
  if (a.workload != b.workload) return "workload";
  if (a.num_pes != b.num_pes) return "num_pes";
  if (a.seed != b.seed) return "seed";
  if (a.completion_time != b.completion_time) return "completion_time";
  if (a.goals_executed != b.goals_executed) return "goals_executed";
  if (a.total_work != b.total_work) return "total_work";
  if (a.critical_path != b.critical_path) return "critical_path";
  if (!same(a.avg_utilization, b.avg_utilization)) return "avg_utilization";
  if (!same(a.speedup, b.speedup)) return "speedup";
  if (!same(a.utilization_cv, b.utilization_cv)) return "utilization_cv";
  if (!same(a.max_min_utilization_gap, b.max_min_utilization_gap))
    return "max_min_utilization_gap";
  if (!same(a.avg_goal_distance, b.avg_goal_distance))
    return "avg_goal_distance";
  if (a.goal_transmissions != b.goal_transmissions)
    return "goal_transmissions";
  if (a.response_transmissions != b.response_transmissions)
    return "response_transmissions";
  if (a.control_transmissions != b.control_transmissions)
    return "control_transmissions";
  if (!same(a.avg_channel_utilization, b.avg_channel_utilization))
    return "avg_channel_utilization";
  if (!same(a.max_channel_utilization, b.max_channel_utilization))
    return "max_channel_utilization";
  if (a.events_executed != b.events_executed) return "events_executed";
  return "";
}

/// The `"key":value` pairs of a record line, in line order. A `,"`
/// sequence never occurs inside a written string (its quotes are escaped
/// as `\"`), so the 22 keys' `,"key":` needles mark the pair boundaries.
std::vector<std::string> record_pairs(const std::string& line) {
  static const char* const kKeys[] = {
      "hash", "topology", "strategy", "workload", "num_pes", "seed",
      "completion_time", "goals_executed", "total_work", "critical_path",
      "avg_utilization", "speedup", "utilization_cv",
      "max_min_utilization_gap", "avg_goal_distance", "goal_transmissions",
      "response_transmissions", "control_transmissions",
      "avg_channel_utilization", "max_channel_utilization",
      "events_executed"};
  std::vector<std::string> pairs;
  std::size_t begin = 1;  // past '{'
  for (const char* key : kKeys) {
    const std::size_t at = line.find(",\"" + std::string(key) + "\":", begin);
    if (at == std::string::npos) return {};
    pairs.push_back(line.substr(begin, at - begin));
    begin = at + 1;
  }
  pairs.push_back(line.substr(begin, line.size() - 1 - begin));
  return pairs;
}

std::string join_record(const std::vector<std::string>& pairs) {
  std::string line = "{";
  for (std::size_t i = 0; i < pairs.size(); ++i)
    line += (i ? "," : "") + pairs[i];
  return line + "}";
}

TEST(JsonlRecord, RoundTripsArbitraryRecords) {
  std::mt19937_64 rng(20260417);
  for (int iter = 0; iter < 300; ++iter) {
    auto rec = random_record(rng);
    // A string that ends in a backslash: written as "w\\", it must not
    // read back with the closing quote taken as escaped.
    if (iter == 0) rec.result.workload = "w\\";
    const std::string line = exp::jsonl_record(rec.job, rec.result);
    SCOPED_TRACE(line);

    const auto parsed = exp::parse_jsonl_record(line);
    ASSERT_TRUE(parsed.has_value());
    ASSERT_EQ(first_difference(rec, *parsed), "");

    for (std::size_t n = 0; n < line.size(); ++n)
      ASSERT_FALSE(exp::parse_jsonl_record(line.substr(0, n)).has_value())
          << "prefix of " << n << " bytes parsed";

    // Keys in any order, with an unknown key mixed in, parse the same.
    auto pairs = record_pairs(line);
    ASSERT_EQ(pairs.size(), 22u);
    ASSERT_EQ(join_record(pairs), line);
    std::shuffle(pairs.begin(), pairs.end(), rng);
    pairs.insert(pairs.begin() + static_cast<std::ptrdiff_t>(rng() % 23),
                 "\"extra\":\"" + std::string("x\\\\") + "\"");
    const auto permuted = exp::parse_jsonl_record(join_record(pairs));
    ASSERT_TRUE(permuted.has_value());
    ASSERT_EQ(first_difference(rec, *permuted), "");

    // A duplicated key keeps its first value: appended, it changes
    // nothing; prepended, it wins.
    const auto other = random_record(rng);
    const auto other_pairs =
        record_pairs(exp::jsonl_record(other.job, other.result));
    ASSERT_EQ(other_pairs.size(), 22u);
    const std::size_t k = rng() % 22;
    auto dup_last = record_pairs(line);
    dup_last.push_back(other_pairs[k]);
    const auto kept = exp::parse_jsonl_record(join_record(dup_last));
    ASSERT_TRUE(kept.has_value());
    ASSERT_EQ(first_difference(rec, *kept), "");
    auto dup_first = record_pairs(line);
    dup_first.insert(dup_first.begin(), other_pairs[k]);
    const auto won = exp::parse_jsonl_record(join_record(dup_first));
    ASSERT_TRUE(won.has_value());
    auto swapped_pairs = record_pairs(line);
    swapped_pairs[k] = other_pairs[k];
    const auto swapped = exp::parse_jsonl_record(join_record(swapped_pairs));
    ASSERT_TRUE(swapped.has_value());
    const RandomRecord want{
        exp::ExperimentJob{swapped->job_index, {}, swapped->content_hash},
        swapped->result};
    ASSERT_EQ(first_difference(want, *won), "");
  }
}

// ------------------------------------------------------------- CSV sink --

TEST(CsvSink, EmitsHeaderOnceAndOneRowPerRun) {
  exp::ExperimentJob job;
  job.config = small_config();
  job.content_hash = exp::job_content_hash(job.config);
  const auto result = core::run_experiment(job.config);

  std::ostringstream os;
  exp::CsvSink sink(os);
  sink.write(job, result);
  job.index = 1;
  sink.write(job, result);

  std::istringstream in(os.str());
  std::string header, row1, row2, extra;
  ASSERT_TRUE(std::getline(in, header));
  ASSERT_TRUE(std::getline(in, row1));
  ASSERT_TRUE(std::getline(in, row2));
  EXPECT_FALSE(std::getline(in, extra));
  EXPECT_EQ(header, exp::CsvSink::header());
  EXPECT_TRUE(header.starts_with("job,hash,topology,"));
  EXPECT_TRUE(row1.starts_with("0," + exp::hash_hex(job.content_hash)));
  EXPECT_TRUE(row2.starts_with("1," + exp::hash_hex(job.content_hash)));
}

// ------------------------------------------- engine determinism & resume --

TEST(BatchEngine, JsonlByteIdenticalAcrossWorkerCounts) {
  const auto configs = small_sweep();
  std::ostringstream one, eight;

  exp::BatchOptions opt;
  opt.collect = false;
  opt.jsonl_stream = &one;
  opt.exec.workers = 1;
  exp::run_batch(configs, opt);

  opt.jsonl_stream = &eight;
  opt.exec.workers = 8;
  exp::run_batch(configs, opt);

  EXPECT_FALSE(one.str().empty());
  EXPECT_EQ(one.str(), eight.str());
}

TEST(BatchEngine, CollectedResultsMatchSerialRuns) {
  const auto configs = small_sweep();
  exp::BatchOptions opt;
  opt.exec.workers = 4;
  const auto outcome = exp::run_batch(configs, opt);
  ASSERT_TRUE(outcome.report.ok());
  ASSERT_EQ(outcome.results.size(), configs.size());
  for (std::size_t i = 0; i < configs.size(); ++i) {
    const auto serial = core::run_experiment(configs[i]);
    EXPECT_EQ(outcome.results[i].completion_time, serial.completion_time);
    EXPECT_EQ(outcome.results[i].goals_executed, serial.goals_executed);
    EXPECT_EQ(outcome.results[i].seed, serial.seed);
  }
}

TEST(BatchEngine, ResumeSkipsCompletedJobsAndCompletesTheSweep) {
  const auto configs = small_sweep();
  const auto store = temp_path("resume.jsonl");

  // "Interrupted" run: only the first 5 jobs ever executed.
  {
    const std::vector<core::ExperimentConfig> partial(configs.begin(),
                                                      configs.begin() + 5);
    exp::BatchOptions opt;
    opt.jsonl_path = store;
    opt.collect = false;
    const auto outcome = exp::run_batch(partial, opt);
    ASSERT_TRUE(outcome.report.ok());
    ASSERT_EQ(line_count(store), 5u);
  }

  // Resume over the full sweep: 5 skipped, 13 executed, store complete.
  exp::BatchOptions opt;
  opt.jsonl_path = store;
  opt.resume = true;
  opt.exec.workers = 4;
  const auto outcome = exp::run_batch(configs, opt);
  EXPECT_TRUE(outcome.report.ok());
  EXPECT_EQ(outcome.report.total_jobs, 18u);
  EXPECT_EQ(outcome.report.skipped, 5u);
  EXPECT_EQ(outcome.report.executed, 13u);
  EXPECT_EQ(line_count(store), 18u);

  // Every job of the sweep appears exactly once in the final store.
  std::unordered_set<std::uint64_t> hashes;
  std::ifstream in(store);
  std::string line;
  while (std::getline(in, line)) {
    const auto rec = exp::parse_jsonl_record(line);
    ASSERT_TRUE(rec.has_value());
    EXPECT_TRUE(hashes.insert(rec->content_hash).second) << "duplicate record";
  }
  for (const auto& cfg : configs)
    EXPECT_TRUE(hashes.contains(exp::job_content_hash(cfg)));

  // A second resume is a no-op: everything cached.
  const auto again = exp::run_batch(configs, opt);
  EXPECT_EQ(again.report.skipped, 18u);
  EXPECT_EQ(again.report.executed, 0u);
  EXPECT_EQ(line_count(store), 18u);

  std::remove(store.c_str());
}

TEST(BatchEngine, ResumeAfterMidWriteKillDoesNotGlueRecords) {
  const auto configs = small_sweep();
  const auto store = temp_path("midwrite.jsonl");
  {
    const std::vector<core::ExperimentConfig> partial(configs.begin(),
                                                      configs.begin() + 3);
    exp::BatchOptions opt;
    opt.jsonl_path = store;
    opt.collect = false;
    ASSERT_TRUE(exp::run_batch(partial, opt).report.ok());
  }
  // Simulate kill -9 mid-write: the store's last line is cut off with no
  // trailing newline.
  auto truncate_tail = [](const std::string& path, std::size_t drop) {
    std::ifstream in(path, std::ios::binary);
    std::string content((std::istreambuf_iterator<char>(in)),
                        std::istreambuf_iterator<char>());
    in.close();
    content.resize(content.size() - drop);
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << content;
  };
  truncate_tail(store, 40);

  exp::BatchOptions opt;
  opt.jsonl_path = store;
  opt.resume = true;
  const auto outcome = exp::run_batch(configs, opt);
  EXPECT_TRUE(outcome.report.ok());
  EXPECT_EQ(outcome.report.skipped, 2u);  // the cut-off third job re-runs

  // Every line except the orphaned partial one parses; all 18 jobs have a
  // well-formed record (nothing glued onto the partial tail).
  std::size_t parsed = 0, unparsed = 0;
  std::ifstream in(store);
  std::string line;
  while (std::getline(in, line)) {
    if (exp::parse_jsonl_record(line)) {
      ++parsed;
    } else {
      ++unparsed;
    }
  }
  EXPECT_EQ(parsed, 18u);
  EXPECT_EQ(unparsed, 1u);
  EXPECT_EQ(exp::load_completed_hashes(store).size(), 18u);

  std::remove(store.c_str());
}

TEST(BatchEngine, NoRunWritesACheckpointFile) {
  const auto configs = small_sweep();
  const auto store = temp_path("nockpt.jsonl");
  const auto csv = temp_path("nockpt.csv");
  exp::BatchOptions opt;
  opt.jsonl_path = store;
  opt.csv_path = csv;
  opt.collect = false;
  ASSERT_TRUE(exp::run_batch(configs, opt).report.ok());
  opt.resume = true;
  EXPECT_EQ(exp::run_batch(configs, opt).report.skipped, 18u);
  // The stores are the only durable record of a completed job.
  EXPECT_FALSE(util::file_exists(store + ".ckpt"));
  EXPECT_FALSE(util::file_exists(csv + ".ckpt"));
  std::remove(store.c_str());
  std::remove(csv.c_str());
}

TEST(BatchEngine, CsvOnlyResumeSkipsCompletedJobsWithoutDuplicateRows) {
  const auto configs = small_sweep();
  const auto csv = temp_path("csvonly.csv");
  {
    const std::vector<core::ExperimentConfig> partial(configs.begin(),
                                                      configs.begin() + 6);
    exp::BatchOptions opt;
    opt.csv_path = csv;
    opt.collect = false;
    ASSERT_TRUE(exp::run_batch(partial, opt).report.ok());
  }
  exp::BatchOptions opt;
  opt.csv_path = csv;
  opt.resume = true;
  const auto outcome = exp::run_batch(configs, opt);
  EXPECT_TRUE(outcome.report.ok());
  EXPECT_EQ(outcome.report.skipped, 6u);
  EXPECT_EQ(outcome.report.executed, 12u);
  EXPECT_EQ(line_count(csv), 19u);  // header + 18 rows, no duplicates

  // The CSV rows alone carry the hashes: a second resume is a no-op.
  const auto again = exp::run_batch(configs, opt);
  EXPECT_EQ(again.report.skipped, 18u);
  EXPECT_EQ(line_count(csv), 19u);

  std::remove(csv.c_str());
}

TEST(BatchEngine, FailedJobsAreReportedAndRetriedOnResume) {
  auto configs = small_sweep();
  configs[3].topology = "nonsense:9q";  // parses at run time → job fails
  const auto store = temp_path("failures.jsonl");

  exp::BatchOptions opt;
  opt.jsonl_path = store;
  opt.collect = true;
  const auto outcome = exp::run_batch(configs, opt);
  EXPECT_FALSE(outcome.report.ok());
  EXPECT_EQ(outcome.report.failed, 1u);
  ASSERT_EQ(outcome.report.errors.size(), 1u);
  EXPECT_NE(outcome.report.errors[0].find("job 3"), std::string::npos);
  EXPECT_EQ(outcome.results.size(), 17u);  // failed job has no record
  EXPECT_EQ(line_count(store), 17u);

  // The failed job has no record: a resume retries exactly it.
  opt.resume = true;
  const auto retry = exp::run_batch(configs, opt);
  EXPECT_EQ(retry.report.skipped, 17u);
  EXPECT_EQ(retry.report.failed, 1u);

  std::remove(store.c_str());
}

// ---------------------------------------------------- ordered committer --

/// Forwards to a JSONL file store and throws on its `fail_at`-th write.
class FailingSink : public exp::ResultSink {
 public:
  FailingSink(const std::string& path, std::size_t fail_at)
      : store_(path), fail_at_(fail_at) {}
  void write(const exp::ExperimentJob& job,
             const stats::RunResult& r) override {
    if (++writes_ == fail_at_) throw SimulationError("injected sink failure");
    store_.write(job, r);
  }
  void flush() override { store_.flush(); }

 private:
  exp::JsonlSink store_;
  std::size_t fail_at_;
  std::size_t writes_ = 0;
};

/// Renders JSONL in memory and records how many jobs each flush covered.
class CountingSink : public exp::ResultSink {
 public:
  void write(const exp::ExperimentJob& job,
             const stats::RunResult& r) override {
    jsonl_.write(job, r);
    ++unflushed_;
  }
  void flush() override {
    groups.push_back(unflushed_);
    flushed.fetch_add(unflushed_);
    unflushed_ = 0;
  }
  std::string bytes() const { return os_.str(); }

  std::vector<std::size_t> groups;    ///< jobs per flush, in commit order
  std::atomic<std::size_t> flushed{0};

 private:
  std::ostringstream os_;
  exp::JsonlSink jsonl_{os_};
  std::size_t unflushed_ = 0;
};

TEST(Committer, SinkErrorFailsTheRunAndLeavesACleanPrefix) {
  const auto configs = small_sweep();
  const auto path = temp_path("sink_error.jsonl");
  constexpr std::size_t kFailAt = 4;
  constexpr std::size_t kWorkers = 4;
  std::string error;
  {
    exp::JobQueue queue(configs);
    FailingSink sink(path, kFailAt);
    exp::ExecutorOptions opts;
    opts.workers = kWorkers;
    try {
      exp::Executor(opts).run(queue, sink);
    } catch (const SimulationError& e) {
      error = e.what();
    }
  }
  EXPECT_NE(error.find("injected sink failure"), std::string::npos);

  // The store parses line by line and holds the job-order prefix.
  std::ifstream in(path);
  std::string line;
  std::size_t records = 0;
  while (std::getline(in, line)) {
    const auto rec = exp::parse_jsonl_record(line);
    ASSERT_TRUE(rec.has_value()) << line;
    EXPECT_EQ(rec->job_index, records);
    ++records;
  }
  EXPECT_LE(records, kFailAt + kWorkers);
  EXPECT_EQ(records, kFailAt - 1);
  std::remove(path.c_str());
}

TEST(Committer, SlowFrontierJobGrowsOneGroupAndKeepsBytesIdentical) {
  const auto configs = small_sweep();
  std::string reference;
  for (const std::size_t workers : {1u, 2u, 8u}) {
    exp::JobQueue queue(configs);
    CountingSink sink;
    exp::ExecutorOptions opts;
    opts.workers = workers;
    // Job 0 holds the frontier far longer than the rest of the sweep takes.
    opts.stop_before = [](const exp::ExperimentJob& job) {
      if (job.index == 0)
        std::this_thread::sleep_for(std::chrono::milliseconds(100));
      return false;
    };
    ASSERT_TRUE(exp::Executor(opts).run(queue, sink).ok());

    std::size_t total = 0, largest = 0;
    for (const auto g : sink.groups) {
      total += g;
      largest = std::max(largest, g);
    }
    EXPECT_EQ(total, configs.size());
    if (workers > 1) {
      EXPECT_GT(largest, 1u) << workers << " workers";
    }
    if (reference.empty()) reference = sink.bytes();
    EXPECT_EQ(sink.bytes(), reference) << workers << " workers";
  }
  EXPECT_FALSE(reference.empty());
}

TEST(Committer, StopBeforeMidRunCommitsExactlyTheContiguousPrefix) {
  const auto configs = small_sweep();
  std::ostringstream serial, stopped;
  exp::BatchOptions opt;
  opt.collect = false;
  opt.exec.workers = 1;
  opt.jsonl_stream = &serial;
  ASSERT_TRUE(exp::run_batch(configs, opt).report.ok());

  opt.exec.workers = 8;
  opt.jsonl_stream = &stopped;
  opt.exec.stop_before = [](const exp::ExperimentJob& job) {
    return job.index >= 9;
  };
  const auto report = exp::run_batch(configs, opt).report;
  EXPECT_EQ(report.executed, 9u);
  EXPECT_EQ(report.cancelled, 9u);

  std::istringstream in(serial.str());
  std::string line, prefix;
  for (int i = 0; i < 9 && std::getline(in, line); ++i) prefix += line + '\n';
  EXPECT_EQ(stopped.str(), prefix);
}

TEST(Committer, CommitBeforeStopCheckSeesEveryEarlierJobFlushed) {
  const auto configs = small_sweep();
  exp::JobQueue queue(configs);
  CountingSink sink;
  exp::ExecutorOptions opts;
  opts.workers = 1;
  std::vector<std::size_t> flushed_at_check;
  opts.stop_before = [&](const exp::ExperimentJob&) {
    flushed_at_check.push_back(sink.flushed.load());
    return false;
  };
  ASSERT_TRUE(exp::Executor(opts).run(queue, sink).ok());
  ASSERT_EQ(flushed_at_check.size(), configs.size());
  for (std::size_t i = 0; i < flushed_at_check.size(); ++i)
    EXPECT_EQ(flushed_at_check[i], i);
}

TEST(ResultSinks, FlushThrowsWhenTheStoreCannotBeSynced) {
  exp::ExperimentJob job;
  job.config = small_config();
  job.content_hash = exp::job_content_hash(job.config);
  const auto result = core::run_experiment(job.config);

  const auto jsonl = temp_path("fsync_fail.jsonl");
  const auto csv = temp_path("fsync_fail.csv");
  for (const auto& p : {jsonl, csv}) std::filesystem::remove_all(p);
  exp::JsonlSink jsonl_sink(jsonl);
  exp::CsvSink csv_sink(csv);
  for (exp::ResultSink* sink : {static_cast<exp::ResultSink*>(&jsonl_sink),
                                static_cast<exp::ResultSink*>(&csv_sink)}) {
    sink->write(job, result);
    EXPECT_NO_THROW(sink->flush());
  }
  // Each store path now names a directory: the fsync cannot reach a file.
  for (const auto& p : {jsonl, csv}) {
    std::filesystem::remove(p);
    std::filesystem::create_directory(p);
  }
  for (exp::ResultSink* sink : {static_cast<exp::ResultSink*>(&jsonl_sink),
                                static_cast<exp::ResultSink*>(&csv_sink)}) {
    sink->write(job, result);
    EXPECT_THROW(sink->flush(), SimulationError);
  }
  for (const auto& p : {jsonl, csv}) std::filesystem::remove_all(p);

  // A target that cannot sync at all (EINVAL) is not an error.
  exp::JsonlSink null_sink("/dev/null");
  null_sink.write(job, result);
  EXPECT_NO_THROW(null_sink.flush());
}

// --------------------------------------- lease workers & golden identity --

TEST(BatchEngine, StopBeforeCancelsTheTailAndResumeFinishesIt) {
  const auto configs = small_sweep();
  const auto store = temp_path("cancel.jsonl");
  const auto serial = temp_path("cancel_serial.jsonl");
  for (const auto& p : {store, serial}) std::remove(p.c_str());

  exp::BatchOptions sopt;
  sopt.jsonl_path = serial;
  sopt.collect = false;
  ASSERT_TRUE(exp::run_batch(configs, sopt).report.ok());

  // A lease shrink mid-run: stop_before vetoes job 5 and everything after.
  exp::BatchOptions opt;
  opt.jsonl_path = store;
  opt.collect = false;
  opt.exec.workers = 2;
  opt.exec.stop_before = [](const exp::ExperimentJob& job) {
    return job.index >= 5;
  };
  const auto cancelled = exp::run_batch(configs, opt);
  EXPECT_TRUE(cancelled.report.ok());  // cancellation is not a failure
  EXPECT_EQ(cancelled.report.executed, 5u);
  EXPECT_EQ(cancelled.report.cancelled, 13u);
  EXPECT_EQ(line_count(store), 5u);  // clean prefix, no gap

  // Resuming without the veto completes the sweep; the appended store is
  // byte-identical to the serial run (ordered commit from a clean prefix).
  opt.exec.stop_before = nullptr;
  opt.resume = true;
  const auto finished = exp::run_batch(configs, opt);
  EXPECT_TRUE(finished.report.ok());
  EXPECT_EQ(finished.report.skipped, 5u);
  EXPECT_EQ(finished.report.cancelled, 0u);
  std::ifstream a(serial, std::ios::binary), b(store, std::ios::binary);
  std::stringstream sa, sb;
  sa << a.rdbuf();
  sb << b.rdbuf();
  EXPECT_EQ(sa.str(), sb.str());

  for (const auto& p : {store, serial}) std::remove(p.c_str());
}

TEST(BatchEngine, GoldenSerialAndAdversarialStealRunsAreByteIdentical) {
  // The tentpole guarantee, two ways: (1) one serial run, (2) a
  // work-stealing schedule with *adversarial* leases — overlapping ranges
  // plus a duplicated store standing in for a steal race that ran jobs
  // twice. Both stores must be byte-identical.
  const auto configs = small_sweep();
  const auto serial = temp_path("golden_serial.jsonl");
  const auto steal = temp_path("golden_steal.jsonl");
  auto cleanup = [&] {
    for (const auto& p : {serial, steal}) std::remove(p.c_str());
    for (std::size_t k = 0; k < 4; ++k)
      std::remove(exp::worker_store_path(steal, k, 4).c_str());
  };
  cleanup();

  auto slurp = [](const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    std::stringstream ss;
    ss << in.rdbuf();
    return ss.str();
  };

  // (1) serial.
  exp::BatchOptions sopt;
  sopt.jsonl_path = serial;
  sopt.collect = false;
  ASSERT_TRUE(exp::run_batch(configs, sopt).report.ok());

  // (2) adversarial steal schedule: leases overlap (jobs 8..9 and 12..13
  // sit in two leases each) — exactly what a shrink race produces.
  const std::vector<std::pair<std::size_t, std::size_t>> leases = {
      {0, 10}, {8, 14}, {12, 18}};
  for (std::size_t k = 0; k < leases.size(); ++k) {
    exp::BatchOptions opt;
    opt.jsonl_path = exp::worker_store_path(steal, k, 4);
    opt.collect = false;
    exp::JobQueue lease =
        exp::JobQueue(configs).slice(leases[k].first, leases[k].second);
    ASSERT_TRUE(exp::run_batch(lease, opt).report.ok());
  }
  // Slot 3's store is a byte copy of slot 0's: a steal race that re-ran an
  // entire range on a second worker.
  {
    std::ofstream dup(exp::worker_store_path(steal, 3, 4),
                      std::ios::binary | std::ios::trunc);
    dup << slurp(exp::worker_store_path(steal, 0, 4));
  }
  exp::StoreMerger steal_merger;
  for (std::size_t k = 0; k < 4; ++k)
    steal_merger.add_store(exp::worker_store_path(steal, k, 4));
  const auto merge = steal_merger.merge_to(steal);
  EXPECT_EQ(merge.records, configs.size());
  EXPECT_GE(merge.duplicates_dropped, 10u);  // the copied store, at least

  const auto golden = slurp(serial);
  ASSERT_FALSE(golden.empty());
  EXPECT_EQ(golden, slurp(steal));
  cleanup();
}

TEST(BatchEngine, SweepBuilderRunBatchEndToEnd) {
  exp::BatchOptions opt;
  opt.exec.workers = 2;
  const auto outcome = core::SweepBuilder(small_config())
                           .topologies({"grid:5x5", "grid:6x6"})
                           .strategies({"random", "roundrobin"})
                           .run_batch(opt);
  EXPECT_TRUE(outcome.report.ok());
  EXPECT_EQ(outcome.report.executed, 4u);
  EXPECT_EQ(outcome.results.size(), 4u);
}

}  // namespace
}  // namespace oracle
