// Tests for ACWN, the baselines, and the strategy factory, plus a
// parameterized cross-strategy property suite (every strategy must conserve
// goals, respect utilization bounds, and be deterministic).

#include <gtest/gtest.h>

#include "core/simulator.hpp"
#include "lb/acwn.hpp"
#include "lb/baselines.hpp"
#include "lb/strategy.hpp"
#include "machine/machine.hpp"
#include "topo/grid.hpp"
#include "util/error.hpp"
#include "workload/fib.hpp"

namespace oracle::lb {
namespace {

workload::CostModel costs() { return workload::CostModel{100, 40, 40}; }

stats::RunResult run_with(Strategy& strategy, const topo::Topology& topo,
                          const workload::Workload& wl,
                          std::uint64_t seed = 1) {
  machine::MachineConfig cfg;
  cfg.seed = seed;
  machine::Machine m(topo, wl, strategy, cfg);
  return m.run();
}

// --------------------------------------------------------------------------
// ACWN
// --------------------------------------------------------------------------

TEST(Acwn, DegeneratesToCwnWhenDisabled) {
  const topo::Grid2D grid(5, 5, false);
  const workload::FibWorkload wl(11, costs());
  AcwnParams p;
  p.saturation = 0;
  p.redistribute_delta = 0;
  Acwn acwn(p);
  Cwn cwn(p);
  const auto ra = run_with(acwn, grid, wl, 9);
  const auto rc = run_with(cwn, grid, wl, 9);
  EXPECT_EQ(ra.completion_time, rc.completion_time);
  EXPECT_EQ(ra.goal_transmissions, rc.goal_transmissions);
}

TEST(Acwn, SaturationControlCutsCommunication) {
  // The paper's §5 prediction: with saturation control, fewer goal messages
  // when the system is already fully loaded.
  const topo::Grid2D grid(4, 4, false);
  const workload::FibWorkload wl(13, costs());
  AcwnParams sat;
  sat.saturation = 2;
  sat.redistribute_delta = 0;
  Acwn acwn(sat);
  Cwn cwn(sat);
  const auto ra = run_with(acwn, grid, wl);
  const auto rc = run_with(cwn, grid, wl);
  EXPECT_LT(ra.goal_transmissions, rc.goal_transmissions);
  EXPECT_EQ(ra.goals_executed, rc.goals_executed);
}

TEST(Acwn, RedistributionRespectsRadiusBudget) {
  const topo::Grid2D grid(6, 6, false);
  const workload::FibWorkload wl(12, costs());
  AcwnParams p;
  p.radius = 4;
  p.horizon = 1;
  p.redistribute_delta = 2;
  Acwn acwn(p);
  const auto r = run_with(acwn, grid, wl);
  for (std::size_t h = p.radius + 1; h < r.goal_hops.buckets(); ++h)
    EXPECT_EQ(r.goal_hops.count(h), 0u);
}

TEST(Acwn, ParamValidation) {
  AcwnParams p;
  p.saturation = -1;
  EXPECT_THROW(Acwn{p}, ConfigError);
}

// --------------------------------------------------------------------------
// Baselines
// --------------------------------------------------------------------------

TEST(WorkStealing, CompletesAndBeatsLocalOnly) {
  const topo::Grid2D grid(4, 4, false);
  const workload::FibWorkload wl(12, costs());
  WorkStealing steal(WorkStealing::Params{});
  LocalOnly local;
  const auto rs = run_with(steal, grid, wl);
  const auto rl = run_with(local, grid, wl);
  EXPECT_EQ(rs.goals_executed, wl.summarize().total_goals);
  EXPECT_GT(rs.speedup, 2.0 * rl.speedup);
}

TEST(WorkStealing, StealsMoveGoalsOneHop) {
  const topo::Grid2D grid(4, 4, false);
  const workload::FibWorkload wl(11, costs());
  WorkStealing steal(WorkStealing::Params{});
  const auto r = run_with(steal, grid, wl);
  // Stolen goals travelled >= 1 hop; most goals stay at 0.
  EXPECT_GT(r.goal_hops.count(0), 0u);
  EXPECT_GT(r.goal_transmissions, 0u);
}

TEST(WorkStealing, ParamValidation) {
  WorkStealing::Params p;
  p.backoff = 0;
  EXPECT_THROW(WorkStealing{p}, ConfigError);
}

TEST(RandomPush, UsesAllNeighborsEventually) {
  const topo::Grid2D grid(3, 3, false);
  const workload::FibWorkload wl(12, costs());
  RandomPush random;
  const auto r = run_with(random, grid, wl);
  int touched = 0;
  for (double u : r.pe_utilization)
    if (u > 0) ++touched;
  EXPECT_GT(touched, 5);
}

TEST(RoundRobinPush, DeterministicWithoutRng) {
  const topo::Grid2D grid(4, 4, false);
  const workload::FibWorkload wl(10, costs());
  RoundRobinPush a, b;
  const auto ra = run_with(a, grid, wl, 1);
  const auto rb = run_with(b, grid, wl, 2);  // different seed, same result
  EXPECT_EQ(ra.completion_time, rb.completion_time);
  EXPECT_EQ(ra.goal_transmissions, rb.goal_transmissions);
}

// --------------------------------------------------------------------------
// Factory
// --------------------------------------------------------------------------

TEST(StrategyFactory, ParsesAllKinds) {
  EXPECT_EQ(make_strategy("cwn")->name(), "cwn(r=9,h=2)");
  EXPECT_EQ(make_strategy("cwn:radius=5,horizon=1")->name(), "cwn(r=5,h=1)");
  EXPECT_EQ(make_strategy("gm:hwm=3,lwm=2,interval=40")->name(),
            "gm(h=3,l=2,i=40)");
  EXPECT_NE(make_strategy("acwn:saturation=4"), nullptr);
  EXPECT_EQ(make_strategy("local")->name(), "local");
  EXPECT_EQ(make_strategy("random")->name(), "random");
  EXPECT_EQ(make_strategy("roundrobin")->name(), "roundrobin");
  EXPECT_EQ(make_strategy("steal:backoff=5")->name(), "steal(b=5)");
}

TEST(StrategyFactory, CaseInsensitiveKeys) {
  EXPECT_EQ(make_strategy("CWN:Radius=4,HORIZON=2")->name(), "cwn(r=4,h=2)");
}

TEST(StrategyFactory, RejectsMalformed) {
  EXPECT_THROW(make_strategy(""), ConfigError);
  EXPECT_THROW(make_strategy("magic"), ConfigError);
  EXPECT_THROW(make_strategy("cwn:radius"), ConfigError);
  EXPECT_THROW(make_strategy("cwn:radius=0"), ConfigError);
  EXPECT_THROW(make_strategy("gm:stagger=maybe"), ConfigError);
}

TEST(StrategyFactory, RejectsUnknownAndDuplicateKeys) {
  for (const char* spec :
       {"cwn:horizn=5", "cwn:tie_keep=0", "gm:hmw=3", "acwn:sat=2",
        "acwn:bcost=3", "steal:back=5", "local:radius=3",
        "cwn:radius=9,radius=3", "gm:HWM=3,hwm=4"})
    EXPECT_THROW(make_strategy(spec), ConfigError) << spec;
  try {
    make_strategy("cwn:horizn=5");
    FAIL() << "unknown key accepted";
  } catch (const ConfigError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("cwn"), std::string::npos) << what;
    EXPECT_NE(what.find("'horizn'"), std::string::npos) << what;
    EXPECT_NE(what.find("horizon"), std::string::npos) << what;
  }
}

TEST(StrategyFactory, RejectsMalformedAndOutOfRangeValues) {
  for (const char* spec :
       {"cwn:tiekeep=maybe", "cwn:radius=x", "cwn:radius=+", "cwn:radius=",
        "cwn:radius=1=2", "cwn:radius=-1", "cwn:radius=4294967296",
        "cwn:horizon=-1", "cwn:interval=-1", "cwn:bcost=-1", "gm:lwm=-1",
        "gm:interval=0", "gm:ccost=-1", "acwn:radius=0", "acwn:interval=-1",
        "acwn:saturation=-1", "acwn:redistribute=-1", "acwn:cooldown=-1",
        "steal:backoff=0", "steal:minvictim=-1", "cwn:radius=5,"})
    EXPECT_THROW(make_strategy(spec), ConfigError) << spec;
}

TEST(StrategyFactory, NamesShowEveryNonDefaultKey) {
  // Two settings never share a name; one setting has one name however
  // it is spelled.
  EXPECT_NE(make_strategy("cwn:tiekeep=0")->name(), make_strategy("cwn")->name());
  EXPECT_EQ(make_strategy("cwn:radius=9")->name(), make_strategy("cwn")->name());
  EXPECT_EQ(make_strategy("cwn:tiekeep=0")->name(), "cwn(r=9,h=2,tiekeep=0)");
  EXPECT_EQ(make_strategy("cwn:interval=20000,radius=3")->name(),
            "cwn(r=3,h=2,interval=20000)");
  EXPECT_EQ(make_strategy("gm:ccost=7,stagger=false")->name(),
            "gm(h=2,l=1,i=20,stagger=0,ccost=7)");
  EXPECT_EQ(make_strategy("acwn")->name(), "acwn(r=9,h=2,sat=3,rd=4)");
  EXPECT_EQ(make_strategy("acwn:cooldown=5")->name(),
            "acwn(r=9,h=2,sat=3,rd=4,cooldown=5)");
  EXPECT_EQ(make_strategy("steal:minvictim=2")->name(),
            "steal(b=10,minvictim=2)");
}

// --------------------------------------------------------------------------
// Cross-strategy property suite
// --------------------------------------------------------------------------

class StrategyProperties : public ::testing::TestWithParam<const char*> {};

TEST_P(StrategyProperties, ConservesGoalsAndBounds) {
  core::ExperimentConfig cfg;
  cfg.topology = "grid:4x4";
  cfg.strategy = GetParam();
  cfg.workload = "fib:11";
  const auto r = core::run_experiment(cfg);
  EXPECT_EQ(r.goals_executed, workload::FibWorkload::tree_size(11));
  EXPECT_GT(r.avg_utilization, 0.0);
  EXPECT_LE(r.avg_utilization, 1.0);
  EXPECT_GE(r.completion_time, r.critical_path);
}

TEST_P(StrategyProperties, DeterministicAcrossRuns) {
  core::ExperimentConfig cfg;
  cfg.topology = "dlm:4:4x4";
  cfg.strategy = GetParam();
  cfg.workload = "dc:1:60";
  cfg.machine.seed = 77;
  const auto a = core::run_experiment(cfg);
  const auto b = core::run_experiment(cfg);
  EXPECT_EQ(a.completion_time, b.completion_time);
  EXPECT_EQ(a.events_executed, b.events_executed);
  EXPECT_EQ(a.goal_hops.to_string(), b.goal_hops.to_string());
}

TEST_P(StrategyProperties, WorksOnBusTopology) {
  core::ExperimentConfig cfg;
  cfg.topology = "dlm:5:5x5";
  cfg.strategy = GetParam();
  cfg.workload = "fib:10";
  const auto r = core::run_experiment(cfg);
  EXPECT_EQ(r.goals_executed, workload::FibWorkload::tree_size(10));
}

TEST_P(StrategyProperties, WorksOnHypercube) {
  core::ExperimentConfig cfg;
  cfg.topology = "hypercube:4";
  cfg.strategy = GetParam();
  cfg.workload = "fib:10";
  const auto r = core::run_experiment(cfg);
  EXPECT_EQ(r.goals_executed, workload::FibWorkload::tree_size(10));
}

INSTANTIATE_TEST_SUITE_P(AllStrategies, StrategyProperties,
                         ::testing::Values("cwn", "cwn:radius=3,horizon=1",
                                           "gm", "gm:hwm=1,lwm=1",
                                           "acwn", "local", "random",
                                           "roundrobin", "steal"));

}  // namespace
}  // namespace oracle::lb
