#pragma once
// Aggregation/query engine over JSONL result stores: the multi-seed
// statistics backend for every reproduction table. A batch sweep writes
// one JSONL record per run (exp/result_sink.hpp); this layer reads those
// records back, groups them by *grid point* — the seed-independent slice
// of the job identity (topology, strategy, workload, PE count), hashed
// with the same FNV-1a scheme as the job content hash — and computes
// mean / sample stddev / 95% confidence interval (Student-t) / min / max /
// percentiles for every numeric metric the record carries.
//
// Every record enters as one Aggregator::Row (content hash, grid identity,
// metric values). `oracle_batch aggregate` parses each line into a row;
// the resident service folds the rows its StoreIndex keeps from earlier
// reads. Both paths fold the same values, in the same order, with the
// same dedup, so their tables are byte-identical.
//
// Exposed on the command line as `oracle_batch aggregate <store.jsonl>`
// with table and CSV output.

#include <array>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "exp/result_sink.hpp"
#include "stats/run_result.hpp"

namespace oracle::exp {

/// Two-sided 97.5% Student-t critical value for `df` degrees of freedom
/// (the multiplier behind a 95% confidence interval); 1.960 asymptote
/// beyond df = 30. df = 0 returns 0 (a single sample has no interval).
double student_t95(std::size_t df);

/// Summary statistics of one metric across the runs of one grid point.
struct MetricSummary {
  std::string name;
  std::size_t n = 0;
  double mean = 0.0;
  double stddev = 0.0;  ///< sample (Bessel-corrected) standard deviation
  double ci95 = 0.0;    ///< half-width: mean ± ci95 covers 95%
  double min = 0.0;
  double max = 0.0;

  /// Samples in ascending order (kept for percentile queries).
  std::vector<double> sorted_samples;

  /// Linear-interpolated percentile (the R-7 / numpy default), p in
  /// [0, 100]. 0 when the group is empty.
  double percentile(double p) const;
};

/// One grid point: every run that differs only in seed.
struct GridPointSummary {
  std::uint64_t key = 0;  ///< grid_key() of the group
  std::string topology;
  std::string strategy;
  std::string workload;
  std::uint32_t num_pes = 0;
  std::size_t runs = 0;

  /// One summary per summarized metric, in Aggregator::metric_names()
  /// order (every metric unless summarize() was given a subset).
  std::vector<MetricSummary> metrics;

  /// Lookup by metric name; nullptr when unknown.
  const MetricSummary* metric(std::string_view name) const;
};

class Aggregator {
 public:
  static constexpr std::size_t kMetricCount = 15;

  /// The metrics extracted from every record, in output order.
  static const std::vector<std::string>& metric_names();

  /// What aggregation keeps of one record: its content hash, its grid
  /// point and every metric value, in metric_names() order. The names
  /// are views: whoever builds a row keeps their bytes alive while it is
  /// folded (a group copies them when it is first seen).
  struct Row {
    std::uint64_t content_hash = 0;
    std::uint64_t grid_key = 0;  ///< grid_key() of the record
    std::string_view topology;
    std::string_view strategy;
    std::string_view workload;
    std::uint32_t num_pes = 0;
    std::array<double, kMetricCount> values{};
  };

  /// The row of one run (the hash is the record's; 0 when it has none).
  /// Its names view `r`'s.
  static Row make_row(std::uint64_t content_hash, const stats::RunResult& r);

  /// Grid-point identity of a record: FNV-1a over the seed-independent
  /// identification fields (topology | strategy | workload | num_pes) —
  /// the same hashing scheme as exp::job_content_hash, minus the knobs a
  /// JSONL record does not persist.
  static std::uint64_t grid_key(const stats::RunResult& r);

  /// Fold one run into its grid point (groups appear in first-seen order).
  /// No dedup: the run carries no content hash.
  void add(const stats::RunResult& r);

  /// Fold one record's row. A row whose content hash was already folded
  /// is counted as a duplicate and NOT added again: aggregating
  /// overlapping stores (e.g. a merged canonical store plus a kept
  /// per-shard store) must not double-count samples and silently shrink
  /// the confidence intervals.
  void add_row(const Row& row);

  /// Parse one JSONL line and add_row() its row; false (and counted as
  /// skipped) on malformed input. Blank lines are ignored and not counted.
  bool add_line(const std::string& line);

  /// Read every line of a stream.
  void read(std::istream& in);

  /// Read a whole store. Throws SimulationError when the file can't be
  /// opened; corrupt lines are skipped (and reported via skipped_lines()).
  static Aggregator from_jsonl_file(const std::string& path);

  /// Read several stores into one aggregation — the cross-host merge path:
  /// each host's sweep (or shard) store contributes its runs, and grid
  /// points spanning stores pool their samples. Group identity is the
  /// seed-independent grid key, so store order only affects group output
  /// order (first-seen), never the statistics.
  static Aggregator from_jsonl_files(const std::vector<std::string>& paths);

  std::size_t rows() const noexcept { return rows_; }
  std::size_t skipped_lines() const noexcept { return skipped_; }
  std::size_t duplicate_rows() const noexcept { return duplicates_; }
  std::size_t groups() const noexcept { return groups_.size(); }

  /// Compute the per-group summaries (first-seen group order) of the
  /// named metrics only; names that are not metrics are ignored. The
  /// default summarizes every metric.
  std::vector<GridPointSummary> summarize(
      const std::vector<std::string>& metrics = metric_names()) const;

  /// Long-format CSV: one row per (grid point, metric) with
  /// n/mean/stddev/ci95/min/max and the p50/p90/p99 percentiles.
  static std::string to_csv(const std::vector<GridPointSummary>& groups);

  /// Fixed-width table of one metric across all grid points.
  static std::string to_table(const std::vector<GridPointSummary>& groups,
                              std::string_view metric);

 private:
  struct Group {
    std::uint64_t key = 0;
    std::string topology;
    std::string strategy;
    std::string workload;
    std::uint32_t num_pes = 0;
    std::vector<std::array<double, kMetricCount>> runs;  // [run][metric]
  };

  void fold(const Row& row);

  std::vector<Group> groups_;
  std::unordered_map<std::uint64_t, std::size_t> index_;
  std::unordered_set<std::uint64_t> seen_hashes_;  ///< add_line dedup
  std::size_t rows_ = 0;
  std::size_t skipped_ = 0;
  std::size_t duplicates_ = 0;
};

}  // namespace oracle::exp
