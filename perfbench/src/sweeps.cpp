// The two sweep workloads.
//
// sweep_tiny:  9,600 ~1 ms fib:9 jobs in one process (exp::run_batch at
//              nproc workers, JSONL store + checkpoint): the ordered-commit
//              path dominates.
// sweep_steal: 1,152 heavy-tailed fib:16 jobs through `oracle_batch run
//              --workers nproc --steal`: simulation-bound, and the only
//              workload that reaches leases, steals and the shard merge.
//
// Both draw their seed axis from the workload seed, repeat the sweep until
// the measuring time is spent, and report medians.

#include <filesystem>

#include "common.hpp"
#include "exp/batch.hpp"
#include "exp/job_queue.hpp"
#include "obs/trace.hpp"
#include "topo/factory.hpp"

namespace perfbench {

namespace {

namespace fs = std::filesystem;
namespace ox = oracle::exp;

/// First seed of a sweep's seed axis; disjoint from the serve fixture's.
std::uint64_t seed_base(std::uint64_t seed) {
  return 10'000 + (seed % 1'000'000) * 1'000;
}

/// Median over eleven repetitions of what a sweep pays before its first job:
/// expanding the grid, building the job queue, and building every topology
/// into the (cleared) shared cache.
double sweep_setup_s(const core::SweepSpec& spec) {
  std::vector<double> v;
  for (int i = 0; i < 11; ++i) {
    oracle::topo::clear_topology_cache();
    const auto t0 = Clock::now();
    const ox::JobQueue queue(spec.build());
    std::vector<std::string> specs;
    for (const auto& job : queue.jobs()) specs.push_back(job.config.topology);
    oracle::topo::prewarm_topology_cache(specs);
    v.push_back(seconds_since(t0));
  }
  return median(v);
}

struct SweepRun {
  double wall_s = 0;
  std::size_t executed = 0;
  std::size_t failed = 0;
};

/// One in-process sweep into a fresh store.
SweepRun run_in_process(const core::SweepSpec& spec, const std::string& store,
                        unsigned workers) {
  fs::remove(store);
  fs::remove(store + ".ckpt");
  ox::BatchOptions bo;
  bo.jsonl_path = store;
  bo.exec.workers = workers;
  bo.collect = false;
  const auto configs = spec.build();
  const auto t0 = Clock::now();
  const auto outcome = ox::run_batch(configs, bo);
  return {seconds_since(t0), outcome.report.executed, outcome.report.failed};
}

/// One `oracle_batch run --steal` sweep in `dir` (created fresh).
SweepRun run_stealing(const Options& opt, const core::SweepSpec& spec,
                      const std::string& dir, const std::string& trace_base) {
  remove_tree(dir);
  make_dirs(dir);
  std::vector<std::string> argv = {opt.oracle_batch, "run"};
  for (const auto& a : spec.to_args()) argv.push_back(a);
  for (const auto& a :
       {std::string("--workers"), std::to_string(opt.nproc),
        std::string("--steal"), std::string("--out"), dir + "/store.jsonl",
        std::string("--no-progress"), std::string("--log-level"),
        std::string("warn")})
    argv.push_back(a);
  if (!trace_base.empty()) {
    argv.push_back("--trace");
    argv.push_back(trace_base);
  }
  const std::size_t jobs = spec.size();
  const auto t0 = Clock::now();
  const int code = run_command(argv, dir + "/log.txt", 170);
  const double wall = seconds_since(t0);
  return {wall, code == 0 ? jobs : 0, code == 0 ? 0 : jobs};
}

/// Repeat `sweep` until the measuring time is spent (at least twice);
/// returns the per-sweep walls.
template <typename Sweep>
std::vector<double> repeat_sweeps(Result& res, const Options& opt,
                                  std::size_t jobs, Sweep&& sweep) {
  std::vector<double> walls;
  const auto t0 = Clock::now();
  do {
    const SweepRun r = sweep(walls.size());
    walls.push_back(r.wall_s);
    res.attempted += jobs;
    res.failed += r.failed;
    res.check(r.executed == jobs,
              oracle::strfmt("sweep %zu committed %zu of %zu jobs",
                             walls.size(), r.executed, jobs));
  } while (walls.size() < 2 ||
           seconds_since(t0) + median(walls) <= opt.seconds);
  return walls;
}

void report_sweep_e2e(Result& res, double setup_s, std::size_t jobs,
                      const std::vector<double>& walls, double rss_mb) {
  std::vector<double> rates;
  for (const double w : walls) rates.push_back(static_cast<double>(jobs) / w);
  res.e2e.emplace_back("setup_s", setup_s);
  res.e2e.emplace_back("peak_rss_mb", rss_mb);
  res.e2e.emplace_back("jobs_per_s", median(rates));
  res.e2e.emplace_back("request_p50_ms", median(walls) * 1e3);
  res.context.emplace_back("sweeps", static_cast<double>(walls.size()));
  res.context.emplace_back("sweep_min_s", percentile(walls, 0));
  res.context.emplace_back("sweep_max_s", percentile(walls, 100));
}

/// Untraced and traced sweeps, alternated twice, for the trace overhead.
struct Overhead {
  double untraced_s = 0;
  double traced_s = 0;
  SweepRun last_traced;
  std::size_t sweeps = 0;
  std::size_t failed = 0;
  std::size_t incomplete = 0;
};

template <typename Sweep>
Overhead alternate(Sweep&& sweep) {
  Overhead o;
  for (int i = 0; i < 2; ++i) {
    for (const bool traced : {false, true}) {
      const SweepRun r = sweep(traced, i);
      (traced ? o.traced_s : o.untraced_s) += r.wall_s;
      if (traced) o.last_traced = r;
      ++o.sweeps;
      o.failed += r.failed;
      if (r.failed != 0 || r.executed == 0) ++o.incomplete;
    }
  }
  return o;
}

void account(Result& res, const Overhead& o, std::size_t jobs) {
  res.attempted = o.sweeps * jobs;
  res.failed = o.failed;
  res.check(o.incomplete == 0, "a traced-pass sweep did not commit every job");
}

/// Trace-analysis context plus the per-layer metrics both sweeps share.
void traced_sweep_layers(Result& res, const Options& opt, const Overhead& o,
                         std::size_t dropped, const std::string& store,
                         const core::SweepSpec& spec) {
  res.context.emplace_back("wall_s", o.last_traced.wall_s);
  res.context.emplace_back("workers", opt.nproc);
  res.layers.emplace_back("obs.trace_overhead", o.traced_s / o.untraced_s);
  res.layers.emplace_back("obs.trace_dropped", static_cast<double>(dropped));
  res.check(dropped == 0, oracle::strfmt("trace dropped %zu events", dropped));
  add_lb_metrics(res, store);
  res.layers.emplace_back("exp.executor.job_wall_inflation",
                          job_wall_inflation(opt));
  measure_common_layers(res, opt, ensure_fixture(opt), spec.topologies);
}

}  // namespace

Result run_sweep_tiny(const Options& opt) {
  Result res;
  const auto spec = grid_spec("fib:9", seed_range(seed_base(opt.seed) + 1, 800));
  const std::size_t jobs = spec.size();
  const std::string store = opt.out_dir + "/store.jsonl";
  // Measured in both modes: it also warms the topology cache.
  const double setup_s = sweep_setup_s(spec);

  if (!opt.trace) {
    std::uint64_t first_hash = 0;
    double rss_mb = 0;
    const auto walls = repeat_sweeps(res, opt, jobs, [&](std::size_t i) {
      const SweepRun r = run_in_process(spec, store, opt.nproc);
      // One sweep's footprint: later sweeps add allocator-arena noise.
      if (i == 0) rss_mb = peak_rss_mb_self();
      // Same inputs, same bytes: every repetition must write one store.
      const std::uint64_t h = fnv1a(read_file(store));
      if (i == 0) first_hash = h;
      res.check(h == first_hash, "store bytes differ between repetitions");
      return r;
    });
    report_sweep_e2e(res, setup_s, jobs, walls, rss_mb);
    check_store(res, store, spec);
    return res;
  }

  // Untraced and traced sweeps alternate twice; the events of the last
  // traced sweep are the ones analysed.
  const Overhead o = alternate([&](bool traced, int) {
    if (!traced) return run_in_process(spec, store, opt.nproc);
    // Per job: one job span, five engine counters, one checkpoint fsync and
    // at most one commit span. Any thread may run every job.
    oracle::obs::Tracer::enable(0, "perfbench sweep_tiny", jobs * 8 + 4096);
    const SweepRun r = run_in_process(spec, store, opt.nproc);
    oracle::obs::Tracer::disable();
    return r;
  });
  const std::string trace = opt.out_dir + "/trace.json";
  oracle::obs::Tracer::write_json(trace);
  res.traces.push_back(trace);
  account(res, o, jobs);
  check_store(res, store, spec);
  traced_sweep_layers(res, opt, o, oracle::obs::Tracer::dropped(), store, spec);
  return res;
}

Result run_sweep_steal(const Options& opt) {
  Result res;
  const auto spec = grid_spec("fib:16", seed_range(seed_base(opt.seed) + 1, 96));
  const std::size_t jobs = spec.size();
  const double setup_s = sweep_setup_s(spec);
  std::string last_dir;

  if (!opt.trace) {
    const auto walls = repeat_sweeps(res, opt, jobs, [&](std::size_t i) {
      if (!last_dir.empty()) remove_tree(last_dir);
      last_dir = opt.out_dir + "/sweep" + std::to_string(i);
      return run_stealing(opt, spec, last_dir, "");
    });
    report_sweep_e2e(res, setup_s, jobs, walls, peak_rss_mb_children());
  } else {
    const Overhead o = alternate([&](bool traced, int i) {
      last_dir = opt.out_dir + (traced ? "/traced" : "/untraced") +
                 std::to_string(i);
      return run_stealing(opt, spec, last_dir, traced ? last_dir + "/trace" : "");
    });
    for (const auto& e : fs::directory_iterator(last_dir))
      if (e.path().filename().string().rfind("trace.", 0) == 0)
        res.traces.push_back(e.path().string());
    account(res, o, jobs);
    traced_sweep_layers(res, opt, o,
                        dropped_in_log(read_file(last_dir + "/log.txt")),
                        last_dir + "/store.jsonl", spec);
  }

  // The merged store must be byte-identical to the same grid run in-process.
  const std::string merged = last_dir + "/store.jsonl";
  check_store(res, merged, spec);
  const std::string ref = opt.out_dir + "/reference.jsonl";
  const SweepRun r = run_in_process(spec, ref, opt.nproc);
  res.check(r.failed == 0, "in-process reference sweep failed");
  res.check(read_file(merged) == read_file(ref),
            "merged store differs from the in-process store");
  return res;
}

}  // namespace perfbench
