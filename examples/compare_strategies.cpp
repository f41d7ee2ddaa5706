// Compare every load-distribution strategy on one scenario, printing the
// full statistics panel (the numbers ORACLE reports per run).
//
//   ./compare_strategies [topology] [workload]
//   e.g. ./compare_strategies grid:16x16 dc:1:987

#include <cstdio>
#include <string>
#include <vector>

#include "oracle.hpp"

int main(int argc, char** argv) {
  using namespace oracle;

  const std::string topology = argc > 1 ? argv[1] : "grid:10x10";
  const std::string workload = argc > 2 ? argv[2] : "fib:15";

  const std::vector<std::string> strategies = {
      "local",
      "random",
      "roundrobin",
      "steal:backoff=10",
      "gm:hwm=2,lwm=1,interval=20",
      "cwn:radius=9,horizon=2",
      "acwn:radius=9,horizon=2,saturation=3,redistribute=4",
  };

  std::vector<core::ExperimentConfig> configs;
  for (const auto& strategy : strategies) {
    core::ExperimentConfig cfg = core::paper::base_config();
    cfg.topology = topology;
    cfg.strategy = strategy;
    cfg.workload = workload;
    configs.push_back(cfg);
  }
  const auto outcome = exp::run_batch(configs);
  for (const auto& err : outcome.report.errors)
    std::fprintf(stderr, "compare_strategies: %s\n", err.c_str());
  if (!outcome.report.ok()) return 1;
  const auto& results = outcome.results;

  std::printf("Strategy comparison: %s, %s (%u PEs)\n\n", topology.c_str(),
              workload.c_str(), results[0].num_pes);
  TextTable t({"strategy", "completion", "util %", "speedup", "goal msgs",
               "resp msgs", "ctrl msgs", "avg dist", "max chan util %"});
  for (const auto& r : results) {
    t.add_row({r.strategy, std::to_string(r.completion_time),
               fixed(r.utilization_percent(), 1), fixed(r.speedup, 1),
               std::to_string(r.goal_transmissions),
               std::to_string(r.response_transmissions),
               std::to_string(r.control_transmissions),
               fixed(r.avg_goal_distance, 2),
               fixed(r.max_channel_utilization * 100, 1)});
  }
  std::printf("%s\n", t.to_string().c_str());

  // Spell out the headline of the paper for the two schemes under study.
  const auto& gm = results[4];
  const auto& cwn = results[5];
  std::printf("CWN / GM speedup ratio: %.2f  (the paper's Table 2 statistic)\n",
              gm.speedup > 0 ? cwn.speedup / gm.speedup : 0.0);
  return 0;
}
