// large_machine: one 131,072-PE hypercube:17 CWN dc:1:400000 run on the
// conservative parallel engine (8 partitions, nproc simulation threads),
// submitted through exp::run_batch with a JSONL store like any sweep job.
// It is the only workload that reaches the partitioned engine, analytic
// routing past 2048 nodes, and the scheduler's overflow heap at scale.
//
// Every run must reproduce the recorded goal count and completion time.

#include <filesystem>

#include "common.hpp"
#include "core/presets.hpp"
#include "exp/batch.hpp"
#include "obs/trace.hpp"
#include "topo/factory.hpp"

namespace perfbench {

namespace {

namespace fs = std::filesystem;
namespace ox = oracle::exp;

constexpr unsigned kPartitions = 8;
constexpr const char* kTopology = "hypercube:17";

// The exact outcome. The partitioned engine's trajectory is the same at
// every thread count >= 2; one thread runs the serial engine, whose
// completion time differs. The inputs do not follow the workload seed:
// run time varies by ~15% across machine seeds.
constexpr std::uint64_t kMachineSeed = 1;
constexpr std::uint64_t kGoals = 799'999;
constexpr std::int64_t kCompletionParallel = 4'256;
constexpr std::int64_t kCompletionSerial = 4'376;

core::ExperimentConfig large_config(unsigned threads) {
  core::ExperimentConfig cfg = oracle::core::paper::base_config();
  cfg.topology = kTopology;
  cfg.strategy = "cwn:radius=2,horizon=2,interval=400";
  cfg.workload = "dc:1:400000";
  cfg.machine.hop_latency = 4;
  cfg.machine.ctrl_latency = 2;
  cfg.machine.seed = kMachineSeed;
  cfg.machine.max_events = 4'000'000'000ull;
  cfg.machine.sim_threads = threads;
  cfg.machine.sim_partitions = kPartitions;
  return cfg;
}

/// One run into a fresh store; returns its wall time.
double run_once(const Options& opt, unsigned threads, Result& res) {
  const std::string store = opt.out_dir + "/store.jsonl";
  fs::remove(store);
  fs::remove(store + ".ckpt");
  ox::BatchOptions bo;
  bo.jsonl_path = store;
  bo.exec.workers = 1;
  const auto t0 = Clock::now();
  const auto outcome = ox::run_batch({large_config(threads)}, bo);
  const double wall_s = seconds_since(t0);
  res.attempted += 1;
  if (!outcome.report.ok() || outcome.results.size() != 1) {
    res.failed += 1;
    res.check(false, "large run failed: " +
                         (outcome.report.errors.empty()
                              ? std::string("no result")
                              : outcome.report.errors.front()));
    return wall_s;
  }
  const auto& r = outcome.results.front();
  const std::int64_t expected =
      threads == 1 ? kCompletionSerial : kCompletionParallel;
  res.check(r.goals_executed == kGoals && r.completion_time == expected,
            oracle::strfmt("large run (%u threads): goals %llu completion %lld, "
                           "expected %llu / %lld",
                           threads,
                           static_cast<unsigned long long>(r.goals_executed),
                           static_cast<long long>(r.completion_time),
                           static_cast<unsigned long long>(kGoals),
                           static_cast<long long>(expected)));
  return wall_s;
}

}  // namespace

Result run_large_machine(const Options& opt) {
  Result res;
  // Set-up: building the 131k-node topology into a cleared cache. Done in
  // both modes: it also leaves the topology cached for the timed runs.
  std::vector<double> builds;
  for (int i = 0; i < 5; ++i) {
    oracle::topo::clear_topology_cache();
    const auto t0 = Clock::now();
    (void)oracle::topo::make_topology_shared(kTopology);
    builds.push_back(seconds_since(t0));
  }

  if (!opt.trace) {
    std::vector<double> walls;
    double rss_mb = 0;
    const auto t0 = Clock::now();
    do {
      walls.push_back(run_once(opt, opt.nproc, res));
      // One run's footprint: later runs add allocator-arena noise.
      if (walls.size() == 1) rss_mb = peak_rss_mb_self();
    } while (seconds_since(t0) + median(walls) <= opt.seconds);
    res.e2e.emplace_back("setup_s", median(builds));
    res.e2e.emplace_back("peak_rss_mb", rss_mb);
    res.e2e.emplace_back("jobs_per_s", 1.0 / median(walls));
    res.e2e.emplace_back("request_p50_ms", median(walls) * 1e3);
    res.context.emplace_back("runs", static_cast<double>(walls.size()));
    return res;
  }

  const double untraced_s = run_once(opt, opt.nproc, res);
  oracle::obs::Tracer::enable(0, "perfbench large_machine", 4096);
  const double traced_s = run_once(opt, opt.nproc, res);
  oracle::obs::Tracer::disable();
  const std::string trace = opt.out_dir + "/trace.json";
  oracle::obs::Tracer::write_json(trace);
  res.traces.push_back(trace);
  const std::size_t dropped = oracle::obs::Tracer::dropped();

  // Same partitions on one thread: the parallel engine's efficiency.
  const double serial_s = run_once(opt, 1, res);
  res.context.emplace_back("wall_s", traced_s);
  res.context.emplace_back("workers", 1);
  res.layers.emplace_back(
      "machine.parallel_efficiency",
      serial_s / (static_cast<double>(opt.nproc) * untraced_s));
  res.layers.emplace_back("obs.trace_overhead", traced_s / untraced_s);
  res.layers.emplace_back("obs.trace_dropped", static_cast<double>(dropped));
  res.check(dropped == 0, oracle::strfmt("trace dropped %zu events", dropped));
  add_lb_metrics(res, opt.out_dir + "/store.jsonl");
  measure_common_layers(res, opt, ensure_fixture(opt), {kTopology});
  return res;
}

}  // namespace perfbench
