// oracle_cli — run any experiment (or sweep) from the command line and
// print the statistics panel, optionally dumping CSVs and a trace.
//
// Usage:
//   oracle_cli [options]
//     --topology SPEC       grid:RxC | torus:RxC | dlm:S:RxC | hypercube:D |
//                           ring:N | complete:N          (default grid:10x10)
//     --strategy SPEC       cwn[:k=v,..] | gm[:..] | acwn[:..] | local |
//                           random | roundrobin | steal   (default cwn)
//     --workload SPEC       fib:N | dc:M:N | synthetic:.. | burst:..
//                           (default fib:15)
//     --seed N              master seed (default 1)
//     --seeds N             run N replications, seeds 1..N, report mean/sd
//     --sample N            utilization sampling interval (default off)
//     --hop-latency N       channel units per goal/response hop (default 1)
//     --load-measure M      queue | queue+waiting
//     --start-pe N          PE where the root goal is injected
//     --csv PATH            append the run row(s) to a CSV file
//     --series PATH         write the utilization time series CSV
//     --trace N             print the first N machine trace events
//
// Examples:
//   oracle_cli --topology dlm:5:20x20 --strategy gm --workload dc:1:4181
//   oracle_cli --strategy cwn:radius=5,horizon=1 --seeds 10

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "oracle.hpp"
#include "lb/strategy.hpp"
#include "machine/machine.hpp"
#include "stats/accumulator.hpp"
#include "stats/csv.hpp"
#include "topo/factory.hpp"

namespace {

using namespace oracle;

[[noreturn]] void usage_error(const std::string& msg) {
  std::fprintf(stderr, "oracle_cli: %s\n(run with --help for usage)\n",
               msg.c_str());
  std::exit(2);
}

void print_usage() {
  std::printf(
      "usage: oracle_cli [--topology SPEC] [--strategy SPEC] [--workload "
      "SPEC]\n"
      "                  [--seed N | --seeds N] [--sample N] [--hop-latency "
      "N]\n"
      "                  [--load-measure queue|queue+waiting] [--start-pe N]\n"
      "                  [--csv PATH] [--series PATH] [--trace N]\n");
}

}  // namespace

int main(int argc, char** argv) {
  core::ExperimentConfig cfg = core::paper::base_config();
  std::uint64_t replications = 1;
  std::string csv_path, series_path;
  std::size_t trace_n = 0;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage_error(arg + " needs a value");
      return argv[++i];
    };
    try {
      if (arg == "--help" || arg == "-h") {
        print_usage();
        return 0;
      } else if (arg == "--topology") {
        cfg.topology = value();
      } else if (arg == "--strategy") {
        cfg.strategy = value();
      } else if (arg == "--workload") {
        cfg.workload = value();
      } else if (arg == "--seed") {
        cfg.machine.seed = static_cast<std::uint64_t>(parse_int(value(), arg));
      } else if (arg == "--seeds") {
        replications = static_cast<std::uint64_t>(parse_int(value(), arg));
        if (replications == 0) usage_error("--seeds must be >= 1");
      } else if (arg == "--sample") {
        cfg.machine.sample_interval = parse_int(value(), arg);
      } else if (arg == "--hop-latency") {
        cfg.machine.hop_latency = parse_int(value(), arg);
      } else if (arg == "--load-measure") {
        const std::string m = value();
        if (m == "queue") {
          cfg.machine.load_measure = machine::LoadMeasure::QueueLength;
        } else if (m == "queue+waiting") {
          cfg.machine.load_measure = machine::LoadMeasure::QueuePlusWaiting;
        } else {
          usage_error("unknown load measure '" + m + "'");
        }
      } else if (arg == "--start-pe") {
        cfg.machine.start_pe =
            static_cast<topo::NodeId>(parse_int(value(), arg));
      } else if (arg == "--csv") {
        csv_path = value();
      } else if (arg == "--series") {
        series_path = value();
        if (cfg.machine.sample_interval == 0) cfg.machine.sample_interval = 50;
      } else if (arg == "--trace") {
        trace_n = static_cast<std::size_t>(parse_int(value(), arg));
      } else {
        usage_error("unknown option '" + arg + "'");
      }
    } catch (const ConfigError& e) {
      usage_error(e.what());
    }
  }

  try {
    std::vector<core::ExperimentConfig> configs;
    for (std::uint64_t s = 0; s < replications; ++s) {
      core::ExperimentConfig c = cfg;
      if (replications > 1) c.machine.seed = s + 1;
      configs.push_back(c);
    }

    // Trace requires holding the Machine, so handle it separately.
    if (trace_n > 0 && replications == 1) {
      const auto topo = topo::make_topology(cfg.topology);
      const auto wl = workload::make_workload(cfg.workload, cfg.costs);
      const auto strategy = lb::make_strategy(cfg.strategy);
      machine::MachineConfig mc = cfg.machine;
      mc.trace_capacity = trace_n;
      machine::Machine m(*topo, *wl, *strategy, mc);
      const auto r = m.run();
      std::printf("%s", m.trace().to_string().c_str());
      std::printf("(%zu trace events shown; run completed at t=%lld, util "
                  "%.1f%%)\n",
                  m.trace().size(), static_cast<long long>(r.completion_time),
                  r.utilization_percent());
      return 0;
    }

    const auto outcome = exp::run_batch(configs);
    if (!outcome.report.ok())
      throw SimulationError(outcome.report.errors.at(0));
    const auto& results = outcome.results;

    TextTable t({"seed", "completion", "util %", "speedup", "goals",
                 "goal msgs", "avg dist"});
    stats::Accumulator util, speedup;
    for (const auto& r : results) {
      t.add_row({std::to_string(r.seed), std::to_string(r.completion_time),
                 fixed(r.utilization_percent(), 1), fixed(r.speedup, 2),
                 std::to_string(r.goals_executed),
                 std::to_string(r.goal_transmissions),
                 fixed(r.avg_goal_distance, 2)});
      util.add(r.avg_utilization);
      speedup.add(r.speedup);
    }
    std::printf("%s = %s on %s =\n\n%s\n", "", results[0].strategy.c_str(),
                results[0].topology.c_str(), t.to_string().c_str());
    if (replications > 1) {
      std::printf("mean util %.1f%% (sd %.2f), mean speedup %.2f (sd %.2f) "
                  "over %llu seeds\n",
                  util.mean() * 100, util.stddev() * 100, speedup.mean(),
                  speedup.stddev(),
                  static_cast<unsigned long long>(replications));
    }

    if (!csv_path.empty()) {
      stats::write_file(csv_path, stats::sweep_to_csv(results));
      std::printf("wrote %s\n", csv_path.c_str());
    }
    if (!series_path.empty()) {
      stats::write_file(series_path, stats::series_to_csv(results[0]));
      std::printf("wrote %s\n", series_path.c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "oracle_cli: %s\n", e.what());
    return 1;
  }
  return 0;
}
