#pragma once
// Cartesian sweep builder: the declarative way to produce the paper's
// 240-run experiment grids (and ablation planes) without hand-writing
// nested loops. Axes multiply; each point inherits the base config.

#include <functional>
#include <string>
#include <vector>

#include "core/config.hpp"
#include "exp/batch.hpp"

namespace oracle::core {

class SweepBuilder {
 public:
  explicit SweepBuilder(ExperimentConfig base = {}) : base_(std::move(base)) {}

  /// Axis over topology specs.
  SweepBuilder& topologies(std::vector<std::string> specs);

  /// Axis over strategy specs. Each spec is parsed here, once per sweep:
  /// a bad one throws ConfigError before any job runs.
  SweepBuilder& strategies(std::vector<std::string> specs);

  /// Axis over workload specs, parsed here like strategies().
  SweepBuilder& workloads(std::vector<std::string> specs);

  /// Axis over seeds (replications).
  SweepBuilder& seeds(std::vector<std::uint64_t> seeds);

  /// Arbitrary per-point mutation axis (e.g. hop latency values): each
  /// entry is a (label, mutator) pair applied to the config.
  using Mutator = std::function<void(ExperimentConfig&)>;
  SweepBuilder& axis(std::vector<std::pair<std::string, Mutator>> points);

  /// Number of configs build() will return.
  std::size_t size() const;

  /// Materialize the cartesian product. Order: the first axis added varies
  /// slowest; later axes vary faster (row-major).
  std::vector<ExperimentConfig> build() const;

  /// Materialize and execute the sweep on the batch experiment engine
  /// (parallel execution, JSONL/CSV stores, resume from the store).
  exp::BatchOutcome run_batch(const exp::BatchOptions& options = {}) const;

 private:
  ExperimentConfig base_;
  std::vector<std::vector<Mutator>> axes_;
};

/// A declarative, serializable sweep request: the preset, axis, and engine
/// knob fields that the oracle_batch CLI flags, worker self-exec command
/// lines, and the resident service's wire protocol all carry. One struct,
/// three encodings — so a sweep parsed from a query frame builds exactly
/// the config list (and therefore exactly the content hashes) that the
/// equivalent command line would.
struct SweepSpec {
  std::string preset;  ///< "" = paper baseline; "million-pe" showcase
  std::vector<std::string> topologies{"grid:6x6", "grid:10x10",
                                      "dlm:5:10x10"};
  std::vector<std::string> strategies{"cwn", "gm", "random"};
  std::vector<std::string> workloads{"fib:13"};
  std::vector<std::uint64_t> seeds{1};

  /// 0 = use the seeds axis verbatim; nonzero re-seeds each job with
  /// Rng::derive_seed(master_seed, job_index) in the batch engine.
  std::uint64_t master_seed = 0;

  /// Engine knobs; -1 keeps the preset/baseline default.
  std::int64_t sample_interval = -1;
  std::int64_t hop_latency = -1;
  std::int64_t sim_threads = -1;
  std::int64_t sim_partitions = -1;

  /// Set `preset` and overwrite the axis defaults with the preset's own
  /// topology/strategy/workload (the CLI's --preset pre-scan semantics:
  /// explicit axis flags still win by being applied afterwards). Throws
  /// ConfigError on an unknown preset name.
  void apply_preset(const std::string& name);

  /// The base config every grid point inherits: preset baseline + knobs.
  ExperimentConfig base_config() const;

  /// A SweepBuilder over base_config() with the four axes installed
  /// (topologies, strategies, workloads, seeds — seeds vary fastest).
  /// Without a master seed, an entry repeated on any axis throws
  /// ConfigError: it would run the same job twice.
  SweepBuilder builder() const;

  std::vector<ExperimentConfig> build() const { return builder().build(); }
  std::size_t size() const { return builder().size(); }

  /// Canonical CLI flags reproducing this spec verbatim (worker self-exec,
  /// launcher scripts).
  std::vector<std::string> to_args() const;

  /// The seeds axis as "--seeds" and the service query carry it: a comma
  /// list, with a trailing comma on a single seed ("5," not "5") so
  /// parse_seed_axis never re-reads an explicit seed as a count.
  std::string seed_list() const;

  /// The "--seeds" dialect: a bare integer N >= 1 means seeds 1..N; a
  /// comma list is taken verbatim. Throws ConfigError on malformed input.
  static std::vector<std::uint64_t> parse_seed_axis(const std::string& value);
};

}  // namespace oracle::core
