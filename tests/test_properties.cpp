// Wide parameterized property suite: the DESIGN.md invariants checked over
// the cartesian product of strategies x workloads x topologies (small
// sizes — hundreds of runs, each a few ms).

#include <gtest/gtest.h>

#include <algorithm>
#include <tuple>

#include "core/simulator.hpp"
#include "exp/batch.hpp"
#include "workload/workload.hpp"

namespace oracle {
namespace {

using Param = std::tuple<const char*, const char*, const char*>;

class CrossProduct : public ::testing::TestWithParam<Param> {};

TEST_P(CrossProduct, CoreInvariantsHold) {
  const auto [strategy, workload, topology] = GetParam();
  core::ExperimentConfig cfg;
  cfg.topology = topology;
  cfg.strategy = strategy;
  cfg.workload = workload;
  cfg.machine.seed = 3;
  const auto r = core::run_experiment(cfg);

  const auto wl = workload::make_workload(workload, cfg.costs);
  const auto summary = wl->summarize();

  // 1. Every goal executed exactly once.
  EXPECT_EQ(r.goals_executed, summary.total_goals);
  std::uint64_t per_pe_sum = 0;
  for (auto g : r.pe_goals) per_pe_sum += g;
  EXPECT_EQ(per_pe_sum, summary.total_goals);

  // 2/3. Work conservation and completion >= critical path.
  EXPECT_EQ(r.total_work, summary.total_work);
  EXPECT_GE(r.completion_time, summary.critical_path);

  // 4. Utilization and speedup bounds.
  EXPECT_GT(r.avg_utilization, 0.0);
  EXPECT_LE(r.avg_utilization, 1.0 + 1e-12);
  EXPECT_LE(r.speedup, static_cast<double>(r.num_pes) + 1e-9);
  const double speedup_by_work = static_cast<double>(r.total_work) /
                                 static_cast<double>(r.completion_time);
  EXPECT_NEAR(r.speedup, speedup_by_work, 1e-6);

  // Hop histogram accounts for every goal.
  EXPECT_EQ(r.goal_hops.total(), summary.total_goals);

  // Channel utilization bounded.
  EXPECT_LE(r.max_channel_utilization, 1.0 + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, CrossProduct,
    ::testing::Combine(
        ::testing::Values("cwn:radius=4,horizon=1", "gm:hwm=1,lwm=1",
                          "acwn:radius=4,horizon=1", "steal", "random",
                          "local"),
        ::testing::Values("fib:10", "dc:1:80",
                          "synthetic:seed=5,depth=8,branchmax=3",
                          "burst:phases=3,width=4"),
        ::testing::Values("grid:4x4", "dlm:4:4x4", "hypercube:4",
                          "tree:2:4", "ring:6")));

// --------------------------------------------------------------------------
// Seed replication properties
// --------------------------------------------------------------------------

class SeedSweep : public ::testing::TestWithParam<const char*> {};

TEST_P(SeedSweep, ResultsVaryButConserve) {
  std::vector<core::ExperimentConfig> configs;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    core::ExperimentConfig cfg;
    cfg.topology = "grid:4x4";
    cfg.strategy = GetParam();
    cfg.workload = "fib:11";
    cfg.machine.seed = seed;
    configs.push_back(cfg);
  }
  exp::BatchOptions opt;
  opt.exec.workers = 6;
  const auto results = exp::run_batch(configs, opt).results;
  ASSERT_EQ(results.size(), configs.size());
  for (const auto& r : results)
    EXPECT_EQ(r.goals_executed, results[0].goals_executed);
  // Completion varies across seeds for randomized strategies (tie-breaks),
  // but within a sane band (no pathological seed).
  sim::SimTime min_t = results[0].completion_time, max_t = min_t;
  for (const auto& r : results) {
    min_t = std::min(min_t, r.completion_time);
    max_t = std::max(max_t, r.completion_time);
  }
  EXPECT_LE(max_t, 2 * min_t) << "seed variance too large";
}

INSTANTIATE_TEST_SUITE_P(Strategies, SeedSweep,
                         ::testing::Values("cwn:radius=4,horizon=1",
                                           "gm:hwm=1,lwm=1", "random",
                                           "steal"));

// --------------------------------------------------------------------------
// Bus-vs-link broadcast economics (the DLM advantage)
// --------------------------------------------------------------------------

TEST(BusBroadcast, DlmBroadcastReachesMoreNeighborsPerTransmission) {
  // CWN's periodic load broadcast costs one transmission per attached
  // link. On the grid that reaches <= 4 neighbors via 4 links; on the DLM
  // it reaches ~16 neighbors via 4 buses. So control transmissions per
  // (PE, cycle) are similar, while the DLM disseminates 4x the info.
  auto run = [](const char* topo) {
    core::ExperimentConfig cfg;
    cfg.topology = topo;
    cfg.strategy = "cwn:radius=4,horizon=1,interval=20";
    cfg.workload = "fib:12";
    return core::run_experiment(cfg);
  };
  const auto grid = run("grid:5x5");
  const auto dlm = run("dlm:5:5x5");
  // Same PE count and cycle cadence: control transmissions should be of
  // the same order; DLM strictly fewer links per PE here (2 buses + 2).
  EXPECT_GT(grid.control_transmissions, 0u);
  EXPECT_GT(dlm.control_transmissions, 0u);
  const double per_cycle_grid =
      static_cast<double>(grid.control_transmissions) /
      static_cast<double>(grid.completion_time);
  const double per_cycle_dlm =
      static_cast<double>(dlm.control_transmissions) /
      static_cast<double>(dlm.completion_time);
  // dlm:5:5x5 has 2 buses per PE vs the grid's ~3.2 links per PE.
  EXPECT_LT(per_cycle_dlm, per_cycle_grid);
}

}  // namespace
}  // namespace oracle
