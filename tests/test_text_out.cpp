// util::TextOut and the three paths it writes: job identity
// (job_canonical_string / job_content_hash), Aggregator::grid_key and
// jsonl_record. Each is compared byte-for-byte against its printf /
// ostringstream formulation, copied here as the reference, over edge-case
// grids; the hashes of the paper's base config are pinned so stores
// written by earlier builds stay cache hits.

#include <gtest/gtest.h>

#include <cfloat>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "core/presets.hpp"
#include "exp/aggregate.hpp"
#include "exp/job.hpp"
#include "exp/result_sink.hpp"
#include "util/string_util.hpp"
#include "util/text_out.hpp"

namespace oracle {
namespace {

// --------------------------------------------------- reference formulations

std::string reference_canonical(const core::ExperimentConfig& config) {
  const auto& c = config.costs;
  const auto& m = config.machine;
  return strfmt(
      "v1|topo=%s|strat=%s|wl=%s|leaf=%lld|split=%lld|combine=%lld|"
      "hop=%lld|ctrl=%lld|word=%lld|gsz=%u|rsz=%u|csz=%u|lm=%u|coproc=%d|"
      "piggy=%d|start=%u|seed=%llu|sample=%lld|perpe=%d|maxev=%llu|"
      "slowpct=%u|slowf=%u",
      config.topology.c_str(), config.strategy.c_str(),
      config.workload.c_str(), static_cast<long long>(c.leaf_cost),
      static_cast<long long>(c.split_cost),
      static_cast<long long>(c.combine_cost),
      static_cast<long long>(m.hop_latency),
      static_cast<long long>(m.ctrl_latency),
      static_cast<long long>(m.word_time), m.goal_msg_size,
      m.response_msg_size, m.ctrl_msg_size,
      static_cast<unsigned>(m.load_measure), m.lb_coprocessor ? 1 : 0,
      m.piggyback_load ? 1 : 0, m.start_pe,
      static_cast<unsigned long long>(m.seed),
      static_cast<long long>(m.sample_interval), m.monitor_per_pe ? 1 : 0,
      static_cast<unsigned long long>(m.max_events), m.slow_pe_percent,
      m.slow_factor);
}

std::uint64_t reference_grid_key(const stats::RunResult& r) {
  return fnv1a64(strfmt("topo=%s|strat=%s|wl=%s|pes=%u", r.topology.c_str(),
                        r.strategy.c_str(), r.workload.c_str(), r.num_pes));
}

std::string reference_json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          out += strfmt("\\u%04x", c);
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string reference_double(double v) { return strfmt("%.17g", v); }

std::string reference_record(const exp::ExperimentJob& job,
                             const stats::RunResult& r) {
  std::ostringstream os;
  os << "{\"job\":" << job.index
     << ",\"hash\":\"" << strfmt("%016llx", static_cast<unsigned long long>(
                                                job.content_hash))
     << '"' << ",\"topology\":\"" << reference_json_escape(r.topology) << '"'
     << ",\"strategy\":\"" << reference_json_escape(r.strategy) << '"'
     << ",\"workload\":\"" << reference_json_escape(r.workload) << '"'
     << ",\"num_pes\":" << r.num_pes << ",\"seed\":" << r.seed
     << ",\"completion_time\":" << r.completion_time
     << ",\"goals_executed\":" << r.goals_executed
     << ",\"total_work\":" << r.total_work
     << ",\"critical_path\":" << r.critical_path
     << ",\"avg_utilization\":" << reference_double(r.avg_utilization)
     << ",\"speedup\":" << reference_double(r.speedup)
     << ",\"utilization_cv\":" << reference_double(r.utilization_cv)
     << ",\"max_min_utilization_gap\":"
     << reference_double(r.max_min_utilization_gap)
     << ",\"avg_goal_distance\":" << reference_double(r.avg_goal_distance)
     << ",\"goal_transmissions\":" << r.goal_transmissions
     << ",\"response_transmissions\":" << r.response_transmissions
     << ",\"control_transmissions\":" << r.control_transmissions
     << ",\"avg_channel_utilization\":"
     << reference_double(r.avg_channel_utilization)
     << ",\"max_channel_utilization\":"
     << reference_double(r.max_channel_utilization)
     << ",\"events_executed\":" << r.events_executed << '}';
  return os.str();
}

double from_bits(std::uint64_t bits) {
  double v;
  std::memcpy(&v, &bits, sizeof v);
  return v;
}

/// Doubles whose %.17g rendering is easy to get wrong.
std::vector<double> edge_doubles() {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  return {0.0,
          -0.0,
          std::numeric_limits<double>::denorm_min(),
          -std::numeric_limits<double>::denorm_min(),
          DBL_MIN,
          DBL_MAX,
          -DBL_MAX,
          1.0 / 3.0,
          1e-300,
          9007199254740993.0,  // 2^53 + 1 (rounds to 2^53)
          0.1,
          1e16,
          1e17,
          123456789012345678.0,
          0.5,
          100.0,
          std::numeric_limits<double>::quiet_NaN(),
          -std::numeric_limits<double>::quiet_NaN(),
          from_bits(0x7ff0000000000001ULL),  // signalling-NaN payload
          kInf,
          -kInf};
}

// ----------------------------------------------------------------- TextOut

TEST(TextOut, IntegersMatchPrintf) {
  const std::vector<long long> signed_values = {
      0, 1, -1, 9, 10, -10, 2147483647, -2147483648LL,
      std::numeric_limits<long long>::max(),
      std::numeric_limits<long long>::min()};
  for (const long long v : signed_values) {
    std::string s;
    util::StringOut out(s);
    out << static_cast<std::int64_t>(v);
    EXPECT_EQ(s, strfmt("%lld", v));
  }
  const std::vector<unsigned long long> unsigned_values = {
      0, 1, 4294967295ULL, 4294967296ULL,
      std::numeric_limits<unsigned long long>::max()};
  for (const unsigned long long v : unsigned_values) {
    std::string s;
    util::StringOut out(s);
    out << static_cast<std::uint64_t>(v) << '|'
        << static_cast<std::uint32_t>(v);
    EXPECT_EQ(s, strfmt("%llu|%u", v, static_cast<unsigned>(v)));
  }
}

TEST(TextOut, DoublesMatchPercent17g) {
  std::vector<double> values = edge_doubles();
  std::mt19937_64 rng(20261019);
  while (values.size() < 20000) {
    const double v = from_bits(rng());
    if (std::isfinite(v)) values.push_back(v);
  }
  for (const double v : values) {
    std::string s;
    util::StringOut out(s);
    out << v;
    ASSERT_EQ(s, reference_double(v));
  }
}

TEST(TextOut, Hex16MatchesPrintfAndHashHex) {
  std::mt19937_64 rng(7);
  std::vector<std::uint64_t> values = {
      0, 1, 0xf, 0x10, 0xa8dbd68de88c6086ULL,
      std::numeric_limits<std::uint64_t>::max()};
  for (int i = 0; i < 1000; ++i) values.push_back(rng());
  for (const std::uint64_t v : values) {
    const std::string want =
        strfmt("%016llx", static_cast<unsigned long long>(v));
    std::string s;
    util::StringOut out(s);
    out << util::Hex16{v};
    EXPECT_EQ(s, want);
    EXPECT_EQ(exp::hash_hex(v), want);
  }
}

TEST(TextOut, Fnv1aSinkHashesTheConcatenation) {
  util::Fnv1aOut h;
  h << "topo=" << std::string("grid-5x5") << '|' << std::uint32_t{25}
    << "|" << -7LL;
  EXPECT_EQ(h.hash(), fnv1a64("topo=grid-5x5|25|-7"));
  EXPECT_EQ(util::Fnv1aOut().hash(), fnv1a64(""));
}

// ------------------------------------------------------------ job identity

/// The edge-case grid: every field at its defaults, then extremes, every
/// bool flipped, each load measure, multi-key specs and names longer than
/// the small-string buffer.
std::vector<core::ExperimentConfig> identity_grid() {
  std::vector<core::ExperimentConfig> out;
  const std::vector<std::string> topologies = {
      "grid:10x10", "hypercube:7", "dlm:5:10x10",
      "torus:64x64-with-a-name-longer-than-any-small-string-buffer"};
  const std::vector<std::string> strategies = {
      "cwn", "cwn:radius=9,horizon=2", "gm:hwm=2,lwm=1,interval=20",
      "acwn:radius=4,horizon=1,saturation=3", ""};
  const std::vector<std::uint64_t> seeds = {
      0, 1, 2, 0xdeadbeefULL, std::numeric_limits<std::uint64_t>::max() - 1,
      std::numeric_limits<std::uint64_t>::max()};
  const std::vector<std::int64_t> costs = {
      0, 1, -1, 100, -40, std::numeric_limits<std::int64_t>::min(),
      std::numeric_limits<std::int64_t>::max()};
  for (const auto& topo : topologies)
    for (const auto& strat : strategies)
      for (const std::uint64_t seed : seeds)
        for (std::size_t k = 0; k < costs.size(); ++k) {
          core::ExperimentConfig c = core::paper::base_config();
          c.topology = topo;
          c.strategy = strat;
          c.workload =
              k % 2 ? "fib:15;leaf=50,split=20" : "burst:phases=4,width=6";
          c.machine.seed = seed;
          c.costs.leaf_cost = costs[k];
          c.costs.split_cost = costs[(k + 1) % costs.size()];
          c.costs.combine_cost = costs[(k + 2) % costs.size()];
          c.machine.hop_latency = costs[(k + 3) % costs.size()];
          c.machine.ctrl_latency = costs[(k + 4) % costs.size()];
          c.machine.word_time = costs[(k + 5) % costs.size()];
          c.machine.sample_interval = costs[(k + 6) % costs.size()];
          c.machine.goal_msg_size = static_cast<std::uint32_t>(seed);
          c.machine.response_msg_size = static_cast<std::uint32_t>(k);
          c.machine.ctrl_msg_size = std::numeric_limits<std::uint32_t>::max();
          c.machine.start_pe = static_cast<std::uint32_t>(seed >> 32);
          c.machine.max_events = seed ^ 0x5555;
          c.machine.slow_pe_percent = static_cast<std::uint32_t>(k * 7);
          c.machine.slow_factor = static_cast<std::uint32_t>(k + 1);
          c.machine.load_measure = k % 2
                                       ? machine::LoadMeasure::QueuePlusWaiting
                                       : machine::LoadMeasure::QueueLength;
          // Each bool on its own bit of k, so every combination appears.
          c.machine.lb_coprocessor = (k & 1) != 0;
          c.machine.piggyback_load = (k & 2) != 0;
          c.machine.monitor_per_pe = (k & 4) != 0;
          out.push_back(c);
        }
  return out;
}

TEST(JobIdentity, CanonicalStringAndHashMatchPrintfReference) {
  const auto grid = identity_grid();
  ASSERT_GT(grid.size(), 800u);
  for (const auto& c : grid) {
    const std::string want = reference_canonical(c);
    ASSERT_EQ(exp::job_canonical_string(c), want);
    ASSERT_EQ(exp::job_content_hash(c), fnv1a64(want)) << want;
  }
}

TEST(JobIdentity, BaseConfigHashesArePinned) {
  // Captured from the printf-based writer: a change here means every
  // store written so far stops satisfying its own jobs.
  core::ExperimentConfig c = core::paper::base_config();
  c.machine.seed = 1;
  EXPECT_EQ(exp::hash_hex(exp::job_content_hash(c)), "a8dbd68de88c6086");
  EXPECT_EQ(exp::job_canonical_string(c),
            "v1|topo=grid:10x10|strat=cwn|wl=fib:15|leaf=100|split=40|"
            "combine=40|hop=1|ctrl=1|word=0|gsz=8|rsz=2|csz=1|lm=0|coproc=1|"
            "piggy=1|start=0|seed=1|sample=0|perpe=0|maxev=500000000|"
            "slowpct=0|slowf=4");
  c.machine.seed = 2;
  EXPECT_EQ(exp::hash_hex(exp::job_content_hash(c)), "373610861fda1b21");
}

TEST(GridKey, MatchesPrintfReference) {
  const std::vector<std::string> names = {
      "", "grid-5x5", "cwn(r=9,h=2)", "fib:13",
      "a-name-longer-than-any-small-string-buffer-of-a-std-string",
      "quote\"and\\backslash"};
  const std::vector<std::uint32_t> pes = {
      0, 1, 100, 131072, std::numeric_limits<std::uint32_t>::max()};
  for (const auto& topo : names)
    for (const auto& strat : names)
      for (const auto& wl : names)
        for (const std::uint32_t n : pes) {
          stats::RunResult r;
          r.topology = topo;
          r.strategy = strat;
          r.workload = wl;
          r.num_pes = n;
          ASSERT_EQ(exp::Aggregator::grid_key(r), reference_grid_key(r))
              << topo << " " << strat << " " << wl << " " << n;
        }
}

// ----------------------------------------------------------- record writer

stats::RunResult record_with(double v, std::mt19937_64& rng) {
  stats::RunResult r;
  r.topology = "grid-10x10";
  r.strategy = "cwn(r=9,h=2)";
  r.workload = "fib:15";
  r.num_pes = static_cast<std::uint32_t>(rng());
  r.seed = rng();
  r.completion_time = static_cast<sim::SimTime>(rng());
  r.goals_executed = rng();
  r.total_work = static_cast<sim::Duration>(rng());
  r.critical_path = -static_cast<sim::Duration>(rng() >> 1);
  r.avg_utilization = v;
  r.speedup = -v;
  r.utilization_cv = v / 3.0;
  r.max_min_utilization_gap = v * 7.0;
  r.avg_goal_distance = v;
  r.goal_transmissions = rng();
  r.response_transmissions = 0;
  r.control_transmissions = std::numeric_limits<std::uint64_t>::max();
  r.avg_channel_utilization = v;
  r.max_channel_utilization = v;
  r.events_executed = rng();
  return r;
}

TEST(JsonlRecordWriter, MatchesOstringstreamReference) {
  std::mt19937_64 rng(25);
  std::vector<double> values = edge_doubles();
  while (values.size() < 3000) {
    const double v = from_bits(rng());
    if (std::isfinite(v)) values.push_back(v);
  }
  const std::vector<std::string> names = {
      "plain", "", "quote\"inside", "back\\slash", "ctrl\x01\x1f\x7f",
      std::string("nul\0byte", 8), "tab\tnl\ncr\r",
      "non-ascii \xc3\xa9\xff",
      "a-name-longer-than-any-small-string-buffer\"\\\n"};
  for (std::size_t i = 0; i < values.size(); ++i) {
    exp::ExperimentJob job;
    job.index = i % 2 ? i : std::numeric_limits<std::size_t>::max() - i;
    job.content_hash = rng();
    stats::RunResult r = record_with(values[i], rng);
    r.topology = names[i % names.size()];
    r.strategy = names[(i + 1) % names.size()];
    r.workload = names[(i + 2) % names.size()];
    ASSERT_EQ(exp::jsonl_record(job, r), reference_record(job, r));
  }
}

TEST(JsonlRecordWriter, ParseRoundTripsEveryField) {
  std::mt19937_64 rng(2206);
  const std::vector<std::string> names = {
      "quote\"inside", "back\\slash", "ctrl\x01\x1f", "tab\tnl\ncr\r",
      "ends-in-backslash\\"};
  std::vector<double> values = edge_doubles();
  for (int i = 0; i < 500; ++i) {
    const double v = from_bits(rng());
    if (std::isfinite(v)) values.push_back(v);
  }
  for (std::size_t i = 0; i < values.size(); ++i) {
    exp::ExperimentJob job;
    job.index = rng();
    job.content_hash = rng();
    stats::RunResult r = record_with(values[i], rng);
    r.topology = names[i % names.size()];
    r.strategy = names[(i + 1) % names.size()];
    r.workload = names[(i + 2) % names.size()];
    const std::string line = exp::jsonl_record(job, r);
    SCOPED_TRACE(line);
    const auto rec = exp::parse_jsonl_record(line);
    if (std::isnan(values[i])) {
      // %.17g writes "nan"/"-nan", which from_chars reads back as NaN.
      ASSERT_TRUE(rec.has_value());
      EXPECT_TRUE(std::isnan(rec->result.avg_utilization));
      continue;
    }
    ASSERT_TRUE(rec.has_value());
    EXPECT_EQ(rec->job_index, job.index);
    EXPECT_EQ(rec->content_hash, job.content_hash);
    const stats::RunResult& p = rec->result;
    EXPECT_EQ(p.topology, r.topology);
    EXPECT_EQ(p.strategy, r.strategy);
    EXPECT_EQ(p.workload, r.workload);
    EXPECT_EQ(p.num_pes, r.num_pes);
    EXPECT_EQ(p.seed, r.seed);
    EXPECT_EQ(p.completion_time, r.completion_time);
    EXPECT_EQ(p.goals_executed, r.goals_executed);
    EXPECT_EQ(p.total_work, r.total_work);
    EXPECT_EQ(p.critical_path, r.critical_path);
    EXPECT_EQ(p.goal_transmissions, r.goal_transmissions);
    EXPECT_EQ(p.response_transmissions, r.response_transmissions);
    EXPECT_EQ(p.control_transmissions, r.control_transmissions);
    EXPECT_EQ(p.events_executed, r.events_executed);
    // Bit-exact: %.17g round-trips every double, -0.0 and infinities too.
    const auto same = [](double a, double b) {
      return std::memcmp(&a, &b, sizeof a) == 0;
    };
    EXPECT_TRUE(same(p.avg_utilization, r.avg_utilization));
    EXPECT_TRUE(same(p.speedup, r.speedup));
    EXPECT_TRUE(same(p.utilization_cv, r.utilization_cv));
    EXPECT_TRUE(same(p.max_min_utilization_gap, r.max_min_utilization_gap));
    EXPECT_TRUE(same(p.avg_goal_distance, r.avg_goal_distance));
    EXPECT_TRUE(same(p.avg_channel_utilization, r.avg_channel_utilization));
    EXPECT_TRUE(same(p.max_channel_utilization, r.max_channel_utilization));
  }
}

}  // namespace
}  // namespace oracle
