// Tests for CSV export and the cartesian SweepBuilder.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>

#include "core/presets.hpp"
#include "core/simulator.hpp"
#include "core/sweep.hpp"
#include "exp/job_queue.hpp"
#include "stats/csv.hpp"
#include "util/error.hpp"
#include "util/spec.hpp"

namespace oracle {
namespace {

stats::RunResult small_run() {
  core::ExperimentConfig cfg;
  cfg.topology = "grid:3x3";
  cfg.strategy = "cwn:radius=3,horizon=1";
  cfg.workload = "fib:9";
  cfg.machine.sample_interval = 25;
  return core::run_experiment(cfg);
}

TEST(Csv, HeaderAndRowColumnCountsMatch) {
  const auto r = small_run();
  const auto count_fields = [](const std::string& line) {
    std::size_t n = 1;
    bool quoted = false;
    for (char c : line) {
      if (c == '"') quoted = !quoted;
      if (c == ',' && !quoted) ++n;
    }
    return n;
  };
  EXPECT_EQ(count_fields(stats::run_result_csv_header()),
            count_fields(stats::run_result_csv_row(r)));
}

TEST(Csv, RowContainsIdentifiers) {
  const auto r = small_run();
  const std::string row = stats::run_result_csv_row(r);
  EXPECT_NE(row.find("grid-3x3"), std::string::npos);
  EXPECT_NE(row.find("cwn(r=3,h=1)"), std::string::npos);
  EXPECT_NE(row.find("fib-9"), std::string::npos);
}

TEST(Csv, SweepDocumentHasOneRowPerResult) {
  const auto r = small_run();
  const std::string doc = stats::sweep_to_csv({r, r, r});
  std::size_t lines = 0;
  for (char c : doc)
    if (c == '\n') ++lines;
  EXPECT_EQ(lines, 4u);  // header + 3 rows
}

TEST(Csv, SeriesAndHopsExports) {
  const auto r = small_run();
  const std::string series = stats::series_to_csv(r);
  EXPECT_NE(series.find("time,utilization_percent"), std::string::npos);
  EXPECT_GT(series.size(), series.find('\n') + 1);  // at least one sample

  const std::string hops = stats::hops_to_csv(r);
  EXPECT_NE(hops.find("hops,count"), std::string::npos);
}

TEST(Csv, WriteFileRoundTrip) {
  const std::string path = "/tmp/oracle_csv_test.csv";
  stats::write_file(path, "a,b\n1,2\n");
  std::ifstream in(path);
  std::stringstream buf;
  buf << in.rdbuf();
  EXPECT_EQ(buf.str(), "a,b\n1,2\n");
  std::remove(path.c_str());
}

TEST(Csv, WriteFileBadPathThrows) {
  EXPECT_THROW(stats::write_file("/nonexistent_dir_xyz/file.csv", "x"),
               SimulationError);
}

// --------------------------------------------------------------------------
// SweepBuilder
// --------------------------------------------------------------------------

TEST(SweepBuilder, EmptyBuilderYieldsNothing) {
  core::SweepBuilder b;
  EXPECT_EQ(b.size(), 0u);
  EXPECT_TRUE(b.build().empty());
}

TEST(SweepBuilder, CartesianProductSize) {
  core::SweepBuilder b;
  b.topologies({"grid:3x3", "grid:4x4"})
      .strategies({"cwn", "gm", "local"})
      .workloads({"fib:7"});
  EXPECT_EQ(b.size(), 6u);
  EXPECT_EQ(b.build().size(), 6u);
}

TEST(SweepBuilder, OrderFirstAxisSlowest) {
  core::SweepBuilder b;
  b.topologies({"grid:3x3", "grid:4x4"}).strategies({"cwn", "gm"});
  const auto configs = b.build();
  ASSERT_EQ(configs.size(), 4u);
  EXPECT_EQ(configs[0].topology, "grid:3x3");
  EXPECT_EQ(configs[0].strategy, "cwn");
  EXPECT_EQ(configs[1].topology, "grid:3x3");
  EXPECT_EQ(configs[1].strategy, "gm");
  EXPECT_EQ(configs[2].topology, "grid:4x4");
  EXPECT_EQ(configs[2].strategy, "cwn");
}

TEST(SweepBuilder, SeedsAxis) {
  core::SweepBuilder b;
  b.workloads({"fib:7"}).seeds({11, 22, 33});
  const auto configs = b.build();
  ASSERT_EQ(configs.size(), 3u);
  EXPECT_EQ(configs[0].machine.seed, 11u);
  EXPECT_EQ(configs[2].machine.seed, 33u);
}

TEST(SweepBuilder, CustomAxisMutates) {
  core::SweepBuilder b;
  b.workloads({"fib:7"});
  b.axis({{"lat1", [](core::ExperimentConfig& c) { c.machine.hop_latency = 1; }},
          {"lat8", [](core::ExperimentConfig& c) { c.machine.hop_latency = 8; }}});
  const auto configs = b.build();
  ASSERT_EQ(configs.size(), 2u);
  EXPECT_EQ(configs[0].machine.hop_latency, 1);
  EXPECT_EQ(configs[1].machine.hop_latency, 8);
}

TEST(SweepBuilder, InheritsBaseConfig) {
  core::ExperimentConfig base;
  base.machine.hop_latency = 5;
  base.machine.seed = 99;
  core::SweepBuilder b(base);
  b.strategies({"cwn"});
  const auto configs = b.build();
  ASSERT_EQ(configs.size(), 1u);
  EXPECT_EQ(configs[0].machine.hop_latency, 5);
  EXPECT_EQ(configs[0].machine.seed, 99u);
}

TEST(SweepBuilder, RejectsEmptyAxes) {
  core::SweepBuilder b;
  EXPECT_THROW(b.topologies({}), ConfigError);
  EXPECT_THROW(b.strategies({}), ConfigError);
  EXPECT_THROW(b.workloads({}), ConfigError);
  EXPECT_THROW(b.seeds({}), ConfigError);
  EXPECT_THROW(b.axis({}), ConfigError);
}

TEST(SweepBuilder, BadSpecsFailTheSweepNotItsJobs) {
  core::SweepBuilder b;
  EXPECT_THROW(b.strategies({"cwn", "cwn:horizn=5"}), ConfigError);
  EXPECT_THROW(b.workloads({"fib:9", "synthetic:leafbais=0.1"}), ConfigError);
  EXPECT_THROW(b.workloads({"fib:9;leaff=2"}), ConfigError);
}

TEST(SweepSpec, ArgsCarryMultiKeySpecsToWorkers) {
  // The million-pe preset's strategy has three keys; a worker reading
  // to_args() back must see one strategy, not three.
  core::SweepSpec spec;
  spec.apply_preset("million-pe");
  spec.workloads = {"synthetic:seed=1,leafbias=0.5", "fib:9;leaf=2,split=1"};
  const auto args = spec.to_args();
  const auto value_of = [&](const char* flag) {
    const auto it = std::find(args.begin(), args.end(), flag);
    return it + 1 < args.end() ? *(it + 1) : std::string();
  };
  EXPECT_EQ(util::split_spec_list(value_of("--strategies")), spec.strategies);
  EXPECT_EQ(util::split_spec_list(value_of("--workloads")), spec.workloads);
  EXPECT_EQ(spec.strategies,
            std::vector<std::string>{"cwn:radius=3,horizon=2,interval=20000"});
}

core::SweepSpec tiny_spec() {
  core::SweepSpec spec;
  spec.topologies = {"grid:4x4"};
  spec.strategies = {"cwn"};
  spec.workloads = {"fib:9"};
  spec.seeds = {1, 2};
  return spec;
}

TEST(SweepSpec, RepeatedTopologyIsAConfigError) {
  auto spec = tiny_spec();
  spec.topologies = {"grid:4x4", "ring:6", "grid:4x4"};
  EXPECT_THROW(spec.build(), ConfigError);
  EXPECT_THROW(spec.size(), ConfigError);
}

TEST(SweepSpec, RepeatedStrategyIsAConfigError) {
  auto spec = tiny_spec();
  spec.strategies = {"cwn", "cwn"};
  EXPECT_THROW(spec.build(), ConfigError);
}

TEST(SweepSpec, RepeatedWorkloadIsAConfigError) {
  auto spec = tiny_spec();
  spec.workloads = {"fib:9;leaf=50", "fib:8", "fib:9;leaf=50"};
  EXPECT_THROW(spec.build(), ConfigError);
}

TEST(SweepSpec, RepeatedSeedIsAConfigError) {
  auto spec = tiny_spec();
  spec.seeds = {3, 1, 3};
  try {
    spec.build();
    FAIL() << "a repeated seed must not build";
  } catch (const ConfigError& e) {
    EXPECT_NE(std::string(e.what()).find("seeds axis names '3' twice"),
              std::string::npos)
        << e.what();
  }
}

TEST(SweepSpec, MasterSeedMakesRepeatedEntriesDistinctJobs) {
  // With a master seed every job takes its own derived seed, so a
  // repeated entry is a replication, not a copy of the same job.
  auto spec = tiny_spec();
  spec.strategies = {"cwn", "cwn"};
  spec.master_seed = 5;
  const auto configs = spec.build();
  ASSERT_EQ(configs.size(), 4u);
  const exp::JobQueue queue(configs, spec.master_seed);
  std::set<std::uint64_t> hashes;
  for (const auto& job : queue.jobs()) hashes.insert(job.content_hash);
  EXPECT_EQ(hashes.size(), 4u);
}

TEST(SweepSpec, DistinctEntriesBuildTheFullProduct) {
  auto spec = tiny_spec();
  spec.strategies = {"cwn", "cwn:radius=5"};  // different specs, not repeats
  EXPECT_EQ(spec.build().size(), 4u);
}

TEST(SweepBuilder, PaperGridReproducesItsRunCount) {
  // 2 programs x 6 sizes x 2 families x 5 sizes x 2 strategies = 240 runs:
  // the paper's experiment plan expressed as a sweep.
  core::SweepBuilder b(core::paper::base_config());
  std::vector<std::string> topos;
  for (const auto& s : core::paper::size_points()) {
    topos.push_back(s.grid_spec);
    topos.push_back(s.dlm_spec);
  }
  std::vector<std::string> workloads = core::paper::fib_specs();
  for (const auto& w : core::paper::dc_specs()) workloads.push_back(w);
  b.topologies(topos).workloads(workloads).strategies({"cwn", "gm"});
  EXPECT_EQ(b.size(), 240u);
}

}  // namespace
}  // namespace oracle
