#pragma once
// Shared pieces of the perfbench binary: options, the result record every
// workload fills in, timing and percentile helpers, child processes, and
// the machine fingerprint.

#include <sys/types.h>

#include <chrono>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/sweep.hpp"
#include "util/string_util.hpp"

namespace perfbench {

namespace core = oracle::core;
using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir;       ///< this run's scratch/results directory
  std::string fixture_dir;   ///< cached serve fixture (shared across runs)
  std::string oracle_batch;  ///< path of the oracle_batch binary
  unsigned nproc = 1;
};

/// What one workload run reports. `e2e` and `layers` keep insertion order;
/// `context` carries values the trace analysis in run.py needs (walls,
/// worker counts); `traces` lists the trace files the run wrote.
struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::pair<std::string, double>> e2e;
  std::vector<std::pair<std::string, double>> layers;
  std::vector<std::pair<std::string, double>> context;
  std::vector<std::string> traces;
  std::vector<std::string> failures;  ///< failed correctness checks

  /// Record a correctness check; a failing one clears `correct`.
  void check(bool ok, const std::string& what);
};

/// Median and linear-interpolated (R-7) percentile; 0 for an empty set.
double percentile(std::vector<double> v, double p);
inline double median(std::vector<double> v) {
  return percentile(std::move(v), 50.0);
}

/// Peak resident set of this process / of its largest waited-for child.
/// A spawned child's figure starts from its spawner's peak.
double peak_rss_mb_self();
double peak_rss_mb_children();

/// A child process with its stdout on a pipe and stderr in a file.
class Child {
 public:
  Child(const std::vector<std::string>& argv, const std::string& stderr_path);
  ~Child();
  Child(const Child&) = delete;
  Child& operator=(const Child&) = delete;

  /// Next stdout line, without its newline; false on EOF or when
  /// `timeout_s` passes.
  bool read_line(std::string& line, double timeout_s);
  /// Everything left on stdout until EOF (bounded by `timeout_s`).
  std::string read_rest(double timeout_s);
  void signal(int sig);
  /// Wait for exit; SIGKILLs the child after `timeout_s`. Returns the exit
  /// code, or 128 + signal number.
  int wait(double timeout_s);
  /// Peak resident set of the running child so far (0 once reaped).
  double peak_rss_mb() const;

 private:
  pid_t pid_ = -1;
  int out_fd_ = -1;
  std::string buffered_;
};

/// Run a command to completion, stdout and stderr appended to `log_path`.
int run_command(const std::vector<std::string>& argv,
                const std::string& log_path, double timeout_s);

/// Trace events an oracle_batch log reports dropping ("trace buffer
/// overflow: N event(s) dropped"), summed over its lines.
std::size_t dropped_in_log(const std::string& log);

std::string read_file(const std::string& path);
void write_file(const std::string& path, const std::string& data);
void make_dirs(const std::string& path);
void remove_tree(const std::string& path);
std::uint64_t fnv1a(const std::string& data);

/// The sweep axes every grid workload shares: the three default
/// topologies x the four strategies.
core::SweepSpec grid_spec(const std::string& workload,
                          std::vector<std::uint64_t> seeds);
std::vector<std::uint64_t> seed_range(std::uint64_t first, std::size_t count);

/// Store checks shared by the sweep workloads: every line parses, job
/// indices are dense and in order, content hashes equal the JobQueue's.
void check_store(Result& res, const std::string& store_path,
                 const core::SweepSpec& spec);

/// Per-layer micro timings every traced pass reports (store index,
/// aggregation, in-process service, framing, codec, sink fsync, routing,
/// topology build, resume scan). `fixture` is a 9,600-record store.
void measure_common_layers(Result& res, const Options& opt,
                           const std::string& fixture,
                           const std::vector<std::string>& topologies);

/// The 9,600-record serve fixture, built once per build of this binary.
std::string ensure_fixture(const Options& opt);
core::SweepSpec fixture_spec();

/// A warm 256-point query: one fixture topology x 4 strategies x 64
/// consecutive fixture seeds starting at `first_seed`.
core::SweepSpec warm_spec(std::size_t topology, std::uint64_t first_seed);
/// Warm windows (topology, first seed) drawn from the workload seed.
std::vector<std::pair<std::size_t, std::uint64_t>> warm_windows(
    std::uint64_t seed, std::size_t count);

/// Fixture lines keyed by content hash, for reference answers.
class FixtureLines {
 public:
  explicit FixtureLines(const std::string& store);
  /// Aggregator::to_table("speedup") over the spec's records in job
  /// order: what a warm query must answer byte for byte.
  std::string reference_table(const core::SweepSpec& spec) const;
  const std::vector<std::string>& lines() const { return lines_; }

 private:
  std::vector<std::string> lines_;
  std::unordered_map<std::uint64_t, std::size_t> by_hash_;
};

/// Mean job wall at nproc workers / at one worker over a 144-job subset
/// of the heavy-tailed fib:16 grid, picked by the workload seed.
double job_wall_inflation(const Options& opt);

/// Fingerprint fields (nproc, CPU model, build type, store filesystem).
std::vector<std::pair<std::string, std::string>> fingerprint(
    const Options& opt);

/// Aggregate lb.* fidelity metrics from the records of `store_path`.
void add_lb_metrics(Result& res, const std::string& store_path);

Result run_sweep_tiny(const Options& opt);
Result run_sweep_steal(const Options& opt);
Result run_serve_rw(const Options& opt);
Result run_large_machine(const Options& opt);

}  // namespace perfbench
