#pragma once
// Shared helpers for the paper-reproduction bench binaries: building the
// paper's sample-point configs, running CWN/GM pairs in parallel, and
// rendering paper-style tables and utilization-vs-time profiles.

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "core/presets.hpp"
#include "core/simulator.hpp"
#include "core/sweep.hpp"
#include "exp/batch.hpp"
#include "stats/run_result.hpp"
#include "util/error.hpp"
#include "util/string_util.hpp"
#include "util/table.hpp"

namespace oracle::bench {

using core::ExperimentConfig;
using core::paper::Family;

inline void print_header(const std::string& title, const std::string& detail) {
  std::printf("================================================================\n");
  std::printf("%s\n", title.c_str());
  if (!detail.empty()) std::printf("%s\n", detail.c_str());
  std::printf("================================================================\n\n");
}

/// Run an ensemble of configs on the batch experiment engine: sharded
/// parallel workers, live jobs/s + ETA progress on stderr, results in
/// config order. Set ORACLE_BENCH_JSONL=path to also stream every run to a
/// JSONL store (fresh file per invocation; the bench tables need the full
/// result vector, so benches never resume). Throws on any failed run.
inline std::vector<stats::RunResult> run_ensemble(
    const std::vector<ExperimentConfig>& configs) {
  exp::BatchOptions opt;
  opt.exec.progress = true;
  if (const char* out = std::getenv("ORACLE_BENCH_JSONL")) opt.jsonl_path = out;
  auto outcome = core::run_batch(configs, opt);
  if (!outcome.report.ok()) {
    throw SimulationError("bench ensemble failed: " +
                          (outcome.report.errors.empty()
                               ? std::string("unknown error")
                               : outcome.report.errors.front()));
  }
  return std::move(outcome.results);
}

/// Build the CWN and GM configs for one sample point.
inline std::pair<ExperimentConfig, ExperimentConfig> paired_configs(
    Family family, const std::string& topology, const std::string& workload) {
  ExperimentConfig cwn = core::paper::base_config();
  cwn.topology = topology;
  cwn.strategy = core::paper::cwn_spec(family);
  cwn.workload = workload;
  ExperimentConfig gm = cwn;
  gm.strategy = core::paper::gm_spec(family);
  return {cwn, gm};
}

/// Speedup ratio CWN/GM, the statistic of the paper's Table 2.
inline double speedup_ratio(const stats::RunResult& cwn,
                            const stats::RunResult& gm) {
  return gm.speedup > 0 ? cwn.speedup / gm.speedup : 0.0;
}

/// Render a sampled utilization profile as a fixed-width ASCII bar row,
/// mirroring the paper's utilization-vs-time plots in the terminal.
inline std::string spark(double percent, int width = 40) {
  int filled = static_cast<int>(percent / 100.0 * width + 0.5);
  if (filled < 0) filled = 0;
  if (filled > width) filled = width;
  return std::string(static_cast<std::size_t>(filled), '#') +
         std::string(static_cast<std::size_t>(width - filled), '.');
}

/// Print a utilization-vs-time profile (the paper's Plots 11-16 style):
/// rows of "t | util% | bar" downsampled to ~`max_rows` rows.
inline void print_time_profile(const stats::RunResult& r,
                               std::size_t max_rows = 25) {
  const auto ts = r.utilization_series();
  std::printf("-- %s on %s, %s: completion %lld, avg util %.1f%%\n",
              r.strategy.c_str(), r.topology.c_str(), r.workload.c_str(),
              static_cast<long long>(r.completion_time),
              r.utilization_percent());
  if (ts.empty()) return;
  const std::size_t stride = std::max<std::size_t>(1, ts.size() / max_rows);
  for (std::size_t i = 0; i < ts.size(); i += stride) {
    std::printf("  t=%7lld  %5.1f%%  %s\n",
                static_cast<long long>(ts.time_at(i)), ts.value_at(i),
                spark(ts.value_at(i)).c_str());
  }
  std::printf("\n");
}

}  // namespace oracle::bench
