#include "core/sweep.hpp"

#include <algorithm>
#include <type_traits>

#include "core/presets.hpp"
#include "lb/strategy.hpp"
#include "util/error.hpp"
#include "util/string_util.hpp"
#include "workload/workload.hpp"

namespace oracle::core {

namespace {

/// Throws ConfigError when an axis names one entry twice. Sorting a copy
/// costs per axis entry, not per job.
template <typename T>
void require_distinct(std::vector<T> entries, const char* axis) {
  std::sort(entries.begin(), entries.end());
  const auto dup = std::adjacent_find(entries.begin(), entries.end());
  if (dup == entries.end()) return;
  std::string entry;
  if constexpr (std::is_integral_v<T>)
    entry = std::to_string(*dup);
  else
    entry = *dup;
  throw ConfigError(strfmt(
      "the %s axis names '%s' twice; without a master seed both copies are "
      "the same job",
      axis, entry.c_str()));
}

}  // namespace

SweepBuilder& SweepBuilder::topologies(std::vector<std::string> specs) {
  ORACLE_REQUIRE(!specs.empty(), "empty topology axis");
  std::vector<Mutator> axis;
  for (auto& s : specs)
    axis.push_back([s](ExperimentConfig& cfg) { cfg.topology = s; });
  axes_.push_back(std::move(axis));
  return *this;
}

SweepBuilder& SweepBuilder::strategies(std::vector<std::string> specs) {
  ORACLE_REQUIRE(!specs.empty(), "empty strategy axis");
  std::vector<Mutator> axis;
  for (auto& s : specs) {
    lb::make_strategy(s);  // a bad spec fails the sweep, not each job
    axis.push_back([s](ExperimentConfig& cfg) { cfg.strategy = s; });
  }
  axes_.push_back(std::move(axis));
  return *this;
}

SweepBuilder& SweepBuilder::workloads(std::vector<std::string> specs) {
  ORACLE_REQUIRE(!specs.empty(), "empty workload axis");
  std::vector<Mutator> axis;
  for (auto& s : specs) {
    workload::check_workload_spec(s);
    axis.push_back([s](ExperimentConfig& cfg) { cfg.workload = s; });
  }
  axes_.push_back(std::move(axis));
  return *this;
}

SweepBuilder& SweepBuilder::seeds(std::vector<std::uint64_t> seeds) {
  ORACLE_REQUIRE(!seeds.empty(), "empty seed axis");
  std::vector<Mutator> axis;
  for (auto seed : seeds)
    axis.push_back([seed](ExperimentConfig& cfg) { cfg.machine.seed = seed; });
  axes_.push_back(std::move(axis));
  return *this;
}

SweepBuilder& SweepBuilder::axis(
    std::vector<std::pair<std::string, Mutator>> points) {
  ORACLE_REQUIRE(!points.empty(), "empty custom axis");
  std::vector<Mutator> axis;
  for (auto& [label, fn] : points) axis.push_back(fn);
  axes_.push_back(std::move(axis));
  return *this;
}

std::size_t SweepBuilder::size() const {
  std::size_t n = 1;
  for (const auto& axis : axes_) n *= axis.size();
  return axes_.empty() ? 0 : n;
}

std::vector<ExperimentConfig> SweepBuilder::build() const {
  std::vector<ExperimentConfig> out;
  if (axes_.empty()) return out;
  out.reserve(size());
  // Odometer over the axes, first axis slowest.
  std::vector<std::size_t> idx(axes_.size(), 0);
  while (true) {
    ExperimentConfig cfg = base_;
    for (std::size_t a = 0; a < axes_.size(); ++a) axes_[a][idx[a]](cfg);
    out.push_back(std::move(cfg));
    // Increment odometer from the last axis.
    std::size_t a = axes_.size();
    while (a > 0) {
      --a;
      if (++idx[a] < axes_[a].size()) break;
      idx[a] = 0;
      if (a == 0) return out;
    }
  }
}

exp::BatchOutcome SweepBuilder::run_batch(
    const exp::BatchOptions& options) const {
  return exp::run_batch(build(), options);
}

void SweepSpec::apply_preset(const std::string& name) {
  ORACLE_REQUIRE(name == "million-pe" || name == "million_pe",
                 "unknown preset '" + name + "' (available: million-pe)");
  preset = "million-pe";
  const ExperimentConfig base = paper::million_pe_config();
  topologies = {base.topology};
  strategies = {base.strategy};
  workloads = {base.workload};
}

ExperimentConfig SweepSpec::base_config() const {
  ExperimentConfig cfg;
  if (preset.empty()) {
    cfg = paper::base_config();
  } else {
    ORACLE_REQUIRE(preset == "million-pe" || preset == "million_pe",
                   "unknown preset '" + preset + "' (available: million-pe)");
    cfg = paper::million_pe_config();
  }
  if (sample_interval >= 0) cfg.machine.sample_interval = sample_interval;
  if (hop_latency >= 0) cfg.machine.hop_latency = hop_latency;
  if (sim_threads >= 0) {
    ORACLE_REQUIRE(sim_threads >= 1, "--sim-threads must be >= 1");
    cfg.machine.sim_threads = static_cast<std::uint32_t>(sim_threads);
  }
  if (sim_partitions >= 0)
    cfg.machine.sim_partitions = static_cast<std::uint32_t>(sim_partitions);
  return cfg;
}

SweepBuilder SweepSpec::builder() const {
  if (master_seed == 0) {
    // A repeated entry repeats every job it is in, content hash and all;
    // a master seed gives each copy its own seed instead.
    require_distinct(topologies, "topologies");
    require_distinct(strategies, "strategies");
    require_distinct(workloads, "workloads");
    require_distinct(seeds, "seeds");
  }
  SweepBuilder b(base_config());
  b.topologies(topologies).strategies(strategies).workloads(workloads);
  // The seeds axis always contributes the replication count; with a
  // master seed the axis values are then overwritten per job by
  // Rng::derive_seed(master, index) in the engine.
  b.seeds(seeds);
  return b;
}

std::vector<std::string> SweepSpec::to_args() const {
  std::vector<std::string> args;
  const auto flag = [&](const char* name, const std::string& value) {
    args.emplace_back(name);
    args.push_back(value);
  };
  if (!preset.empty()) flag("--preset", preset);
  flag("--topologies", join(topologies, ","));
  flag("--strategies", join(strategies, ","));
  flag("--workloads", join(workloads, ","));
  flag("--seeds", seed_list());
  if (master_seed != 0) flag("--master-seed", std::to_string(master_seed));
  if (sample_interval >= 0) flag("--sample", std::to_string(sample_interval));
  if (hop_latency >= 0) flag("--hop-latency", std::to_string(hop_latency));
  if (sim_threads >= 0) flag("--sim-threads", std::to_string(sim_threads));
  if (sim_partitions >= 0)
    flag("--sim-partitions", std::to_string(sim_partitions));
  return args;
}

std::string SweepSpec::seed_list() const {
  std::string out;
  for (const auto s : seeds) (out += std::to_string(s)) += ',';
  if (seeds.size() > 1) out.pop_back();
  return out;
}

std::vector<std::uint64_t> SweepSpec::parse_seed_axis(
    const std::string& value) {
  std::vector<std::uint64_t> out;
  if (value.find(',') != std::string::npos) {
    for (const auto& item : split(value, ',')) {
      const auto t = trim(item);
      if (t.empty()) continue;
      const auto s = parse_int(t, "--seeds");
      ORACLE_REQUIRE(s >= 0, "--seeds entries must be >= 0");
      out.push_back(static_cast<std::uint64_t>(s));
    }
    ORACLE_REQUIRE(!out.empty(), "--seeds needs at least one entry");
    return out;
  }
  const auto n = parse_int(trim(value), "--seeds");
  ORACLE_REQUIRE(n >= 1, "--seeds must be >= 1");
  for (std::int64_t s = 1; s <= n; ++s)
    out.push_back(static_cast<std::uint64_t>(s));
  return out;
}

}  // namespace oracle::core
