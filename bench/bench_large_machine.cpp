// bench_large_machine — single-run throughput at 10^5+ PEs: the serial
// engine vs the conservative parallel engine on the same model.
//
// Scenario: a 131,072-PE hypercube (hypercube:17 — diffusion is
// logarithmic, so one root goal saturates the machine quickly) under CWN
// with a long broadcast interval, computing dc(1, 400000) (~1.6M goal
// phases, ~28M events). The parallel run uses a pinned partition count
// (8 shards), so its trajectory is identical for ANY worker thread count;
// only the wall clock changes.
//
// Output: one JSON object on stdout (redirect to BENCH_large.json). The
// `cpus` field lets CI gate the speedup assertion — on a single-core host
// the windows serialize and the barrier overhead is all that's left.
// Both legs must reproduce their recorded completion times (the full
// workload only); the exit status is non-zero otherwise. Peak RSS is
// reported after the serial leg and after both.
//
// Usage: bench_large_machine [--threads N] [--quick]
//   --threads N   worker count for the parallel leg (default 4)
//   --quick       quarter-size workload (local smoke, not for BENCH files)

#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>

#include <sys/resource.h>

#include "core/presets.hpp"
#include "core/simulator.hpp"

namespace {

// Recorded completion times of the full workload. Each engine's
// trajectory is fixed (the parallel one by the partition count), so any
// drift is a behaviour change, not noise.
constexpr long long kCompletionSerial = 4376;
constexpr long long kCompletionParallel = 4256;

double peak_rss_mb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

struct Leg {
  double seconds = 0.0;
  oracle::stats::RunResult result;
};

Leg run_leg(const oracle::core::ExperimentConfig& base, unsigned threads,
            unsigned partitions) {
  oracle::core::ExperimentConfig cfg = base;
  cfg.machine.sim_threads = threads;
  cfg.machine.sim_partitions = partitions;
  Leg leg;
  const auto t0 = std::chrono::steady_clock::now();
  leg.result = oracle::core::run_experiment(cfg);
  leg.seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  return leg;
}

}  // namespace

int main(int argc, char** argv) {
  unsigned threads = 4;
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc) {
      threads = static_cast<unsigned>(std::atoi(argv[++i]));
      if (threads < 1) threads = 1;
    } else if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else {
      std::fprintf(stderr, "usage: bench_large_machine [--threads N] [--quick]\n");
      return 2;
    }
  }

  oracle::core::ExperimentConfig base = oracle::core::paper::base_config();
  base.topology = "hypercube:17";  // 131,072 PEs
  base.strategy = "cwn:radius=2,horizon=2,interval=400";
  base.workload = quick ? "dc:1:100000" : "dc:1:400000";
  base.machine.hop_latency = 4;
  base.machine.ctrl_latency = 2;
  base.machine.seed = 1;
  base.machine.max_events = 4'000'000'000ull;
  const unsigned partitions = 8;

  std::fprintf(stderr,
               "bench_large_machine: %s / %s / %s, serial then %u threads "
               "(%u partitions)\n",
               base.topology.c_str(), base.strategy.c_str(),
               base.workload.c_str(), threads, partitions);

  const Leg serial = run_leg(base, 1, partitions);
  const double serial_rss_mb = peak_rss_mb();
  std::fprintf(stderr, "  serial:   %.2fs (%.2fM events/s)\n", serial.seconds,
               serial.result.events_executed / serial.seconds / 1e6);
  const Leg parallel = run_leg(base, threads, partitions);
  std::fprintf(stderr, "  parallel: %.2fs (%.2fM events/s)\n",
               parallel.seconds,
               parallel.result.events_executed / parallel.seconds / 1e6);

  // The parallel trajectory is a function of the partition count alone, so
  // the goal count must agree with serial exactly (the completion time may
  // differ slightly: K schedulers interleave control traffic differently).
  const bool goals_match =
      serial.result.goals_executed == parallel.result.goals_executed;
  // The quick workload has no recorded completions.
  const bool completions_match =
      quick || (serial.result.completion_time == kCompletionSerial &&
                parallel.result.completion_time == kCompletionParallel);

  // `cpus` gates the CI speedup assertion (see ci.yml): with < 4 hardware
  // threads the parallel legs time-slice one core and can only lose.
  std::printf(
      "{\n"
      "  \"name\": \"large_machine_serial_vs_parallel\",\n"
      "  \"topology\": \"%s\",\n"
      "  \"workload\": \"%s\",\n"
      "  \"num_pes\": %u,\n"
      "  \"threads\": %u,\n"
      "  \"partitions\": %u,\n"
      "  \"cpus\": %u,\n"
      "  \"serial_seconds\": %.4f,\n"
      "  \"parallel_seconds\": %.4f,\n"
      "  \"speedup\": %.3f,\n"
      "  \"serial_events\": %llu,\n"
      "  \"parallel_events\": %llu,\n"
      "  \"serial_completion\": %lld,\n"
      "  \"parallel_completion\": %lld,\n"
      "  \"goals\": %llu,\n"
      "  \"goals_match\": %s,\n"
      "  \"completions_match\": %s,\n"
      "  \"serial_peak_rss_mb\": %.1f,\n"
      "  \"peak_rss_mb\": %.1f\n"
      "}\n",
      base.topology.c_str(), base.workload.c_str(), serial.result.num_pes,
      threads, partitions, std::thread::hardware_concurrency(),
      serial.seconds, parallel.seconds, serial.seconds / parallel.seconds,
      static_cast<unsigned long long>(serial.result.events_executed),
      static_cast<unsigned long long>(parallel.result.events_executed),
      static_cast<long long>(serial.result.completion_time),
      static_cast<long long>(parallel.result.completion_time),
      static_cast<unsigned long long>(serial.result.goals_executed),
      goals_match ? "true" : "false", completions_match ? "true" : "false",
      serial_rss_mb, peak_rss_mb());
  return goals_match && completions_match ? 0 : 1;
}
