#include "exp/aggregate.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <limits>
#include <sstream>

#include "util/error.hpp"
#include "util/string_util.hpp"
#include "util/table.hpp"
#include "util/text_out.hpp"

namespace oracle::exp {

namespace {

/// One extractable metric of a JSONL record.
struct MetricField {
  const char* name;
  double (*get)(const stats::RunResult&);
};

constexpr MetricField kMetrics[] = {
    {"completion_time",
     [](const stats::RunResult& r) {
       return static_cast<double>(r.completion_time);
     }},
    {"speedup", [](const stats::RunResult& r) { return r.speedup; }},
    {"avg_utilization",
     [](const stats::RunResult& r) { return r.avg_utilization; }},
    {"utilization_cv",
     [](const stats::RunResult& r) { return r.utilization_cv; }},
    {"max_min_utilization_gap",
     [](const stats::RunResult& r) { return r.max_min_utilization_gap; }},
    {"goals_executed",
     [](const stats::RunResult& r) {
       return static_cast<double>(r.goals_executed);
     }},
    {"total_work",
     [](const stats::RunResult& r) { return static_cast<double>(r.total_work); }},
    {"critical_path",
     [](const stats::RunResult& r) {
       return static_cast<double>(r.critical_path);
     }},
    {"avg_goal_distance",
     [](const stats::RunResult& r) { return r.avg_goal_distance; }},
    {"goal_transmissions",
     [](const stats::RunResult& r) {
       return static_cast<double>(r.goal_transmissions);
     }},
    {"response_transmissions",
     [](const stats::RunResult& r) {
       return static_cast<double>(r.response_transmissions);
     }},
    {"control_transmissions",
     [](const stats::RunResult& r) {
       return static_cast<double>(r.control_transmissions);
     }},
    {"avg_channel_utilization",
     [](const stats::RunResult& r) { return r.avg_channel_utilization; }},
    {"max_channel_utilization",
     [](const stats::RunResult& r) { return r.max_channel_utilization; }},
    {"events_executed",
     [](const stats::RunResult& r) {
       return static_cast<double>(r.events_executed);
     }},
};

constexpr std::size_t kNumMetrics = std::size(kMetrics);

}  // namespace

double student_t95(std::size_t df) {
  // Two-sided 97.5% quantiles of the t distribution, df = 1..30; every
  // df beyond the table's last entry gets the normal-approximation
  // asymptote 1.960 (never an out-of-bounds table read). Standard table
  // values.
  static constexpr double kT[30] = {
      12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228,
      2.201,  2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086,
      2.080,  2.074, 2.069, 2.064, 2.060, 2.056, 2.052, 2.048, 2.045, 2.042};
  constexpr std::size_t kTableSize = std::size(kT);
  if (df == 0) return 0.0;  // a single sample has no interval
  if (df <= kTableSize) return kT[df - 1];
  return 1.960;
}

double MetricSummary::percentile(double p) const {
  if (sorted_samples.empty()) return 0.0;
  // Clamp p into [0, 100]; a NaN p has no meaningful rank and propagates
  // as NaN rather than indexing with an undefined float->int cast.
  if (std::isnan(p)) return std::numeric_limits<double>::quiet_NaN();
  if (p <= 0.0) return sorted_samples.front();
  if (p >= 100.0) return sorted_samples.back();
  const double rank =
      p / 100.0 * static_cast<double>(sorted_samples.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(rank);
  const double w = rank - static_cast<double>(lo);
  if (lo + 1 >= sorted_samples.size()) return sorted_samples.back();
  return sorted_samples[lo] * (1.0 - w) + sorted_samples[lo + 1] * w;
}

const MetricSummary* GridPointSummary::metric(std::string_view name) const {
  for (const auto& m : metrics)
    if (m.name == name) return &m;
  return nullptr;
}

const std::vector<std::string>& Aggregator::metric_names() {
  static const std::vector<std::string> names = [] {
    std::vector<std::string> out;
    out.reserve(kNumMetrics);
    for (const auto& m : kMetrics) out.emplace_back(m.name);
    return out;
  }();
  return names;
}

std::uint64_t Aggregator::grid_key(const stats::RunResult& r) {
  util::Fnv1aOut key;
  key << "topo=" << r.topology << "|strat=" << r.strategy
      << "|wl=" << r.workload << "|pes=" << r.num_pes;
  return key.hash();
}

Aggregator::Group& Aggregator::group_for(const stats::RunResult& r) {
  const std::uint64_t key = grid_key(r);
  const auto [it, fresh] = index_.try_emplace(key, groups_.size());
  if (fresh) {
    Group g;
    g.key = key;
    g.topology = r.topology;
    g.strategy = r.strategy;
    g.workload = r.workload;
    g.num_pes = r.num_pes;
    g.samples.resize(kNumMetrics);
    groups_.push_back(std::move(g));
  }
  return groups_[it->second];
}

void Aggregator::add(const stats::RunResult& r) {
  Group& g = group_for(r);
  ++g.runs;
  ++rows_;
  for (std::size_t m = 0; m < kNumMetrics; ++m)
    g.samples[m].push_back(kMetrics[m].get(r));
}

bool Aggregator::add_line(const std::string& line) {
  if (line.empty()) return true;
  const auto rec = parse_jsonl_record(line);
  if (!rec) {
    ++skipped_;
    return false;
  }
  // The content hash is the job's identity: a second record with the same
  // hash is the same run seen through another store (canonical + kept
  // shard store, the same host store passed twice, ...). Counting it
  // again would inflate n and deflate every confidence interval.
  if (!seen_hashes_.insert(rec->content_hash).second) {
    ++duplicates_;
    return true;
  }
  add(rec->result);
  return true;
}

void Aggregator::read(std::istream& in) {
  std::string line;
  while (std::getline(in, line)) add_line(line);
}

Aggregator Aggregator::from_jsonl_file(const std::string& path) {
  return from_jsonl_files({path});
}

Aggregator Aggregator::from_jsonl_files(const std::vector<std::string>& paths) {
  Aggregator agg;
  for (const auto& path : paths) {
    std::ifstream in(path);
    if (!in)
      throw SimulationError("cannot open result store '" + path + "'");
    agg.read(in);
  }
  return agg;
}

std::vector<GridPointSummary> Aggregator::summarize() const {
  std::vector<GridPointSummary> out;
  out.reserve(groups_.size());
  for (const Group& g : groups_) {
    GridPointSummary s;
    s.key = g.key;
    s.topology = g.topology;
    s.strategy = g.strategy;
    s.workload = g.workload;
    s.num_pes = g.num_pes;
    s.runs = g.runs;
    s.metrics.reserve(kNumMetrics);
    for (std::size_t m = 0; m < kNumMetrics; ++m) {
      MetricSummary ms;
      ms.name = kMetrics[m].name;
      ms.sorted_samples = g.samples[m];
      std::sort(ms.sorted_samples.begin(), ms.sorted_samples.end());
      ms.n = ms.sorted_samples.size();
      if (ms.n > 0) {
        ms.min = ms.sorted_samples.front();
        ms.max = ms.sorted_samples.back();
        double sum = 0.0;
        for (const double v : ms.sorted_samples) sum += v;
        ms.mean = sum / static_cast<double>(ms.n);
        if (ms.n > 1) {
          double m2 = 0.0;
          for (const double v : ms.sorted_samples)
            m2 += (v - ms.mean) * (v - ms.mean);
          ms.stddev = std::sqrt(m2 / static_cast<double>(ms.n - 1));
          ms.ci95 = student_t95(ms.n - 1) * ms.stddev /
                    std::sqrt(static_cast<double>(ms.n));
        }
        // n == 1: sample stddev / CI are undefined; both stay exactly 0.0
        // (initialized above) so single-replication grid points render as
        // "mean +/- 0" instead of garbage.
      }
      s.metrics.push_back(std::move(ms));
    }
    out.push_back(std::move(s));
  }
  return out;
}

namespace {
std::string csv_escape(const std::string& s) {
  if (s.find_first_of(",\"\n") == std::string::npos) return s;
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"') out += '"';
    out += c;
  }
  return out + "\"";
}
}  // namespace

std::string Aggregator::to_csv(const std::vector<GridPointSummary>& groups) {
  std::ostringstream os;
  os << "topology,strategy,workload,num_pes,metric,n,mean,stddev,ci95,min,"
        "max,p50,p90,p99\n";
  for (const auto& g : groups) {
    for (const auto& m : g.metrics) {
      os << csv_escape(g.topology) << ',' << csv_escape(g.strategy) << ','
         << csv_escape(g.workload) << ',' << g.num_pes << ',' << m.name << ','
         << m.n << ','
         << strfmt("%.9g,%.9g,%.9g,%.9g,%.9g,%.9g,%.9g,%.9g", m.mean,
                   m.stddev, m.ci95, m.min, m.max, m.percentile(50),
                   m.percentile(90), m.percentile(99))
         << '\n';
    }
  }
  return os.str();
}

std::string Aggregator::to_table(const std::vector<GridPointSummary>& groups,
                                 std::string_view metric) {
  // ASCII only: TextTable pads by byte count, so a multibyte "±" would
  // shift every subsequent column.
  TextTable t({"topology", "strategy", "workload", "PEs", "runs", "mean",
               "stddev", "95% CI +/-", "min", "max", "p50"});
  for (const auto& g : groups) {
    const MetricSummary* m = g.metric(metric);
    if (m == nullptr) continue;
    t.add_row({g.topology, g.strategy, g.workload, std::to_string(g.num_pes),
               std::to_string(m->n), strfmt("%.4g", m->mean),
               strfmt("%.4g", m->stddev), strfmt("%.4g", m->ci95),
               strfmt("%.4g", m->min), strfmt("%.4g", m->max),
               strfmt("%.4g", m->percentile(50))});
  }
  return t.to_string();
}

}  // namespace oracle::exp
