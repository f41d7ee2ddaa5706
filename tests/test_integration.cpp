// End-to-end integration tests: the full config -> simulator -> result
// pipeline, parallel batch runs, paper presets, and the headline result of
// the paper reproduced at test scale (CWN beats GM on grids).

#include <gtest/gtest.h>

#include <set>

#include "core/presets.hpp"
#include "core/simulator.hpp"
#include "exp/batch.hpp"
#include "util/error.hpp"
#include "workload/dc.hpp"
#include "workload/fib.hpp"

namespace oracle::core {
namespace {

TEST(Simulator, RunsFromSpecStrings) {
  ExperimentConfig cfg;
  cfg.topology = "grid:5x5";
  cfg.strategy = "cwn:radius=9,horizon=2";
  cfg.workload = "fib:12";
  const auto r = run_experiment(cfg);
  EXPECT_EQ(r.num_pes, 25u);
  EXPECT_EQ(r.topology, "grid-5x5");
  EXPECT_EQ(r.strategy, "cwn(r=9,h=2)");
  EXPECT_EQ(r.workload, "fib-12");
  EXPECT_EQ(r.goals_executed, workload::FibWorkload::tree_size(12));
}

TEST(Simulator, BadSpecsThrowBeforeRunning) {
  ExperimentConfig cfg;
  cfg.topology = "nonsense:3";
  EXPECT_THROW(run_experiment(cfg), ConfigError);
  cfg = ExperimentConfig{};
  cfg.strategy = "nonsense";
  EXPECT_THROW(run_experiment(cfg), ConfigError);
  cfg = ExperimentConfig{};
  cfg.workload = "nonsense:1";
  EXPECT_THROW(run_experiment(cfg), ConfigError);
}

TEST(Simulator, LabelIsReadable) {
  ExperimentConfig cfg;
  EXPECT_EQ(cfg.label(), "grid:10x10 / cwn / fib:15");
}

/// Run the configs on `threads` executor threads, results in config order.
exp::BatchOutcome run_on(const std::vector<ExperimentConfig>& configs,
                         std::size_t threads) {
  exp::BatchOptions opt;
  opt.exec.workers = threads;
  return exp::run_batch(configs, opt);
}

TEST(Runner, ParallelMatchesSerial) {
  std::vector<ExperimentConfig> configs;
  for (int n : {9, 10, 11}) {
    for (const char* strat : {"cwn", "gm"}) {
      ExperimentConfig cfg;
      cfg.topology = "grid:4x4";
      cfg.strategy = strat;
      cfg.workload = "fib:" + std::to_string(n);
      configs.push_back(cfg);
    }
  }
  const auto parallel = run_on(configs, 6).results;
  const auto serial = run_on(configs, 1).results;
  ASSERT_EQ(parallel.size(), serial.size());
  for (std::size_t i = 0; i < parallel.size(); ++i) {
    EXPECT_EQ(parallel[i].completion_time, serial[i].completion_time) << i;
    EXPECT_EQ(parallel[i].events_executed, serial[i].events_executed) << i;
  }
}

TEST(Runner, PreservesOrder) {
  std::vector<ExperimentConfig> configs(4);
  configs[0].workload = "fib:7";
  configs[1].workload = "fib:9";
  configs[2].workload = "dc:1:21";
  configs[3].workload = "dc:1:55";
  const auto results = run_on(configs, 4).results;
  ASSERT_EQ(results.size(), 4u);
  EXPECT_EQ(results[0].workload, "fib-7");
  EXPECT_EQ(results[1].workload, "fib-9");
  EXPECT_EQ(results[2].workload, "dc-1-21");
  EXPECT_EQ(results[3].workload, "dc-1-55");
}

TEST(Runner, PropagatesErrors) {
  std::vector<ExperimentConfig> configs(2);
  configs[1].topology = "bogus:1";
  const auto outcome = run_on(configs, 2);
  EXPECT_FALSE(outcome.report.ok());
  EXPECT_EQ(outcome.report.failed, 1u);
  ASSERT_EQ(outcome.report.errors.size(), 1u);
  EXPECT_NE(outcome.report.errors[0].find("bogus"), std::string::npos)
      << outcome.report.errors[0];
}

// --------------------------------------------------------------------------
// Paper presets
// --------------------------------------------------------------------------

TEST(Presets, SizePointsMatchPaper) {
  const auto& sizes = paper::size_points();
  ASSERT_EQ(sizes.size(), 5u);
  std::vector<std::uint32_t> pes;
  for (const auto& s : sizes) pes.push_back(s.pes);
  EXPECT_EQ(pes, (std::vector<std::uint32_t>{25, 64, 100, 256, 400}));
}

TEST(Presets, WorkloadsMatchPaperSizes) {
  ASSERT_EQ(paper::fib_specs().size(), 6u);
  ASSERT_EQ(paper::dc_specs().size(), 6u);
  // Equal tree sizes pairwise (fib 7 ~ dc 21, ..., fib 18 ~ dc 4181).
  const std::vector<std::uint32_t> fib_args = {7, 9, 11, 13, 15, 18};
  const std::vector<std::int64_t> dc_ns = {21, 55, 144, 377, 987, 4181};
  for (std::size_t i = 0; i < 6; ++i) {
    EXPECT_EQ(workload::FibWorkload::tree_size(fib_args[i]),
              workload::DcWorkload::tree_size(1, dc_ns[i]));
  }
}

TEST(Presets, Table1Parameters) {
  EXPECT_EQ(paper::cwn_spec(paper::Family::Grid), "cwn:radius=9,horizon=2");
  EXPECT_EQ(paper::cwn_spec(paper::Family::Dlm), "cwn:radius=5,horizon=1");
  EXPECT_NE(paper::gm_spec(paper::Family::Grid).find("hwm=2"),
            std::string::npos);
  EXPECT_NE(paper::gm_spec(paper::Family::Dlm).find("hwm=1"),
            std::string::npos);
}

TEST(Presets, SamplePointBuildsRunnableConfig) {
  const auto cfg = paper::sample_point(paper::Family::Dlm,
                                       paper::size_points()[0], true,
                                       "fib:9");
  const auto r = run_experiment(cfg);
  EXPECT_EQ(r.num_pes, 25u);
  EXPECT_EQ(r.goals_executed, workload::FibWorkload::tree_size(9));
}

// --------------------------------------------------------------------------
// The paper's headline results, at test scale
// --------------------------------------------------------------------------

TEST(PaperHeadline, CwnBeatsGmOnGrid) {
  // Table 2's core finding: CWN yields substantially larger speedups than
  // GM on grids. Test at 8x8 / fib 13 (a mid-table cell).
  ExperimentConfig cwn = paper::base_config();
  cwn.topology = "grid:8x8";
  cwn.strategy = paper::cwn_spec(paper::Family::Grid);
  cwn.workload = "fib:13";
  ExperimentConfig gm = cwn;
  gm.strategy = paper::gm_spec(paper::Family::Grid);
  const auto rc = run_experiment(cwn);
  const auto rg = run_experiment(gm);
  EXPECT_GT(rc.speedup, rg.speedup * 1.10);  // "significant, > 10%"
}

TEST(PaperHeadline, DlmMarginSmallerThanGridMargin) {
  // Table 2: grid speedup ratios reach 2-3x; DLM ratios stay near 1.0-1.5.
  auto ratio = [](const std::string& topo, paper::Family family) {
    ExperimentConfig cwn = paper::base_config();
    cwn.topology = topo;
    cwn.strategy = paper::cwn_spec(family);
    cwn.workload = "fib:13";
    ExperimentConfig gm = cwn;
    gm.strategy = paper::gm_spec(family);
    return run_experiment(cwn).speedup / run_experiment(gm).speedup;
  };
  const double grid_ratio = ratio("grid:8x8", paper::Family::Grid);
  const double dlm_ratio = ratio("dlm:4:8x8", paper::Family::Dlm);
  EXPECT_GT(grid_ratio, dlm_ratio * 0.95);
  EXPECT_GT(dlm_ratio, 0.75);  // GM never wins big on DLM
}

TEST(PaperHeadline, CwnCommunicatesMoreThanGm) {
  // §4: "Typically, it requires thrice as much communication as the GM...
  // the average distance travelled by a goal message is typically less
  // than 1 [for GM]; on the grids, with CWN the distance is about 3."
  ExperimentConfig cwn = paper::base_config();
  cwn.topology = "grid:10x10";
  cwn.strategy = paper::cwn_spec(paper::Family::Grid);
  cwn.workload = "fib:15";
  ExperimentConfig gm = cwn;
  gm.strategy = paper::gm_spec(paper::Family::Grid);
  const auto rc = run_experiment(cwn);
  const auto rg = run_experiment(gm);
  // Our GM re-distributes more than the paper's (see EXPERIMENTS.md), so
  // the distance gap is narrower than the paper's 3.4x but the ordering
  // must hold, along with the absolute ~3-hop CWN average.
  EXPECT_GT(rc.avg_goal_distance, rg.avg_goal_distance);
  EXPECT_GT(rc.goal_transmissions, rg.goal_transmissions);
  EXPECT_NEAR(rc.avg_goal_distance, 3.15, 1.0);  // paper Table 3: 3.15
}

TEST(PaperHeadline, CwnFasterRiseTime) {
  // Plots 11-16: CWN "spreads work quickly to all the PEs at beginning".
  // Compare utilization early in the run (at 20% of GM's completion).
  ExperimentConfig cwn = paper::base_config();
  cwn.topology = "grid:8x8";
  cwn.strategy = paper::cwn_spec(paper::Family::Grid);
  cwn.workload = "fib:14";
  cwn.machine.sample_interval = 50;
  ExperimentConfig gm = cwn;
  gm.strategy = paper::gm_spec(paper::Family::Grid);
  const auto rc = run_experiment(cwn);
  const auto rg = run_experiment(gm);
  const sim::SimTime probe = rg.completion_time / 5;
  EXPECT_GT(rc.utilization_series().interpolate(probe),
            rg.utilization_series().interpolate(probe));
}

}  // namespace
}  // namespace oracle::core
