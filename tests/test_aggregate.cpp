// exp::Aggregator: grouping by grid point, mean/CI/percentile math against
// hand-computed fixtures, and a multi-seed aggregate round-trip through a
// JSONL store written by the batch engine.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/simulator.hpp"
#include "core/sweep.hpp"
#include "exp/aggregate.hpp"
#include "exp/batch.hpp"
#include "exp/job.hpp"
#include "exp/result_sink.hpp"

namespace oracle::exp {
namespace {

stats::RunResult point(const std::string& topology,
                       const std::string& strategy, std::uint64_t seed,
                       double speedup) {
  stats::RunResult r;
  r.topology = topology;
  r.strategy = strategy;
  r.workload = "fib:13";
  r.num_pes = 100;
  r.seed = seed;
  r.speedup = speedup;
  r.avg_utilization = speedup / 100.0;
  r.completion_time = static_cast<sim::SimTime>(10'000.0 / speedup);
  return r;
}

// ---------------------------------------------------------------------------
// Statistics fixtures (hand-computed)
// ---------------------------------------------------------------------------

TEST(Aggregate, StudentTCriticalValues) {
  EXPECT_DOUBLE_EQ(student_t95(0), 0.0);
  EXPECT_DOUBLE_EQ(student_t95(1), 12.706);
  EXPECT_DOUBLE_EQ(student_t95(7), 2.365);
  EXPECT_DOUBLE_EQ(student_t95(30), 2.042);
  EXPECT_DOUBLE_EQ(student_t95(31), 1.960);
  EXPECT_DOUBLE_EQ(student_t95(10'000), 1.960);
}

TEST(Aggregate, TextbookMomentsAndConfidenceInterval) {
  // The classic sample {2,4,4,4,5,5,7,9}: mean 5, sample variance 32/7.
  Aggregator agg;
  const double samples[] = {2, 4, 4, 4, 5, 5, 7, 9};
  std::uint64_t seed = 1;
  for (const double s : samples)
    agg.add(point("grid-10x10", "cwn", seed++, s));

  const auto groups = agg.summarize();
  ASSERT_EQ(groups.size(), 1u);
  const MetricSummary* m = groups[0].metric("speedup");
  ASSERT_NE(m, nullptr);
  EXPECT_EQ(m->n, 8u);
  EXPECT_DOUBLE_EQ(m->mean, 5.0);
  const double stddev = std::sqrt(32.0 / 7.0);  // Bessel-corrected
  EXPECT_DOUBLE_EQ(m->stddev, stddev);
  // 95% CI half-width: t_{.975, df=7} * s / sqrt(n).
  EXPECT_DOUBLE_EQ(m->ci95, 2.365 * stddev / std::sqrt(8.0));
  EXPECT_DOUBLE_EQ(m->min, 2.0);
  EXPECT_DOUBLE_EQ(m->max, 9.0);
}

TEST(Aggregate, SingleSampleHasNoInterval) {
  Aggregator agg;
  agg.add(point("grid-10x10", "cwn", 1, 42.0));
  const auto groups = agg.summarize();
  const MetricSummary* m = groups[0].metric("speedup");
  ASSERT_NE(m, nullptr);
  EXPECT_EQ(m->n, 1u);
  EXPECT_DOUBLE_EQ(m->mean, 42.0);
  EXPECT_DOUBLE_EQ(m->stddev, 0.0);
  EXPECT_DOUBLE_EQ(m->ci95, 0.0);
}

TEST(Aggregate, PercentilesInterpolateLinearly) {
  // Samples 10,20,...,100: R-7 percentiles are linear in rank.
  Aggregator agg;
  for (int i = 1; i <= 10; ++i)
    agg.add(point("grid-10x10", "cwn", static_cast<std::uint64_t>(i),
                  10.0 * i));
  const auto groups = agg.summarize();
  const MetricSummary* m = groups[0].metric("speedup");
  ASSERT_NE(m, nullptr);
  EXPECT_DOUBLE_EQ(m->percentile(0), 10.0);
  EXPECT_DOUBLE_EQ(m->percentile(100), 100.0);
  EXPECT_DOUBLE_EQ(m->percentile(50), 55.0);   // rank 4.5
  EXPECT_DOUBLE_EQ(m->percentile(25), 32.5);   // rank 2.25
  EXPECT_DOUBLE_EQ(m->percentile(90), 91.0);   // rank 8.1
}

// ---------------------------------------------------------------------------
// Grouping
// ---------------------------------------------------------------------------

TEST(Aggregate, GroupsByGridPointAcrossSeeds) {
  Aggregator agg;
  // Interleave two grid points; groups keep first-seen order.
  agg.add(point("grid-10x10", "cwn", 1, 50.0));
  agg.add(point("grid-10x10", "gm", 1, 30.0));
  agg.add(point("grid-10x10", "cwn", 2, 60.0));
  agg.add(point("grid-10x10", "gm", 2, 40.0));
  EXPECT_EQ(agg.rows(), 4u);
  EXPECT_EQ(agg.groups(), 2u);

  const auto groups = agg.summarize();
  ASSERT_EQ(groups.size(), 2u);
  EXPECT_EQ(groups[0].strategy, "cwn");
  EXPECT_EQ(groups[0].runs, 2u);
  EXPECT_DOUBLE_EQ(groups[0].metric("speedup")->mean, 55.0);
  EXPECT_EQ(groups[1].strategy, "gm");
  EXPECT_DOUBLE_EQ(groups[1].metric("speedup")->mean, 35.0);
  EXPECT_NE(groups[0].key, groups[1].key);
}

TEST(Aggregate, MalformedLinesAreSkippedNotFatal) {
  Aggregator agg;
  ExperimentJob job;
  job.index = 0;
  job.config.topology = "grid:4x4";
  job.config.strategy = "cwn";
  job.config.workload = "fib:8";
  job.content_hash = job_content_hash(job.config);
  const auto r = point("grid-4x4", "cwn", 1, 10.0);

  EXPECT_TRUE(agg.add_line(jsonl_record(job, r)));
  EXPECT_FALSE(agg.add_line("{\"job\":broken"));
  EXPECT_TRUE(agg.add_line(""));  // blank lines are ignored
  EXPECT_EQ(agg.rows(), 1u);
  EXPECT_EQ(agg.skipped_lines(), 1u);
}

TEST(Aggregate, CsvAndTableRenderEveryGroup) {
  Aggregator agg;
  agg.add(point("grid-10x10", "cwn", 1, 50.0));
  agg.add(point("grid-10x10", "cwn", 2, 60.0));
  const auto groups = agg.summarize();

  const std::string csv = Aggregator::to_csv(groups);
  EXPECT_NE(csv.find("topology,strategy,workload,num_pes,metric,n,mean,"
                     "stddev,ci95,min,max,p50,p90,p99"),
            std::string::npos);
  EXPECT_NE(csv.find("grid-10x10,cwn,fib:13,100,speedup,2,55,"),
            std::string::npos);

  const std::string table = Aggregator::to_table(groups, "speedup");
  EXPECT_NE(table.find("grid-10x10"), std::string::npos);
  EXPECT_NE(table.find("55"), std::string::npos);
  // Unknown metrics render an empty table rather than crashing.
  EXPECT_EQ(Aggregator::to_table(groups, "no_such_metric").find("grid"),
            std::string::npos);
}

// ---------------------------------------------------------------------------
// Multi-seed round trip through a JSONL store
// ---------------------------------------------------------------------------

TEST(Aggregate, MultiSeedRoundTripThroughStore) {
  const std::string path = "aggregate_roundtrip_test.jsonl";
  std::remove(path.c_str());

  core::ExperimentConfig base;
  base.topology = "grid:4x4";
  base.workload = "fib:9";
  core::SweepBuilder sweep(base);
  sweep.strategies({"cwn:radius=3,horizon=1", "random"}).seeds({1, 2, 3, 4});

  exp::BatchOptions opt;
  opt.jsonl_path = path;
  const auto outcome = sweep.run_batch(opt);
  ASSERT_TRUE(outcome.report.ok());
  ASSERT_EQ(outcome.results.size(), 8u);

  const auto agg = Aggregator::from_jsonl_file(path);
  EXPECT_EQ(agg.rows(), 8u);
  EXPECT_EQ(agg.skipped_lines(), 0u);
  const auto groups = agg.summarize();
  ASSERT_EQ(groups.size(), 2u);

  // Each grid point aggregates its four seeds; the mean must equal the
  // arithmetic mean of the in-memory results (store round trip is exact:
  // %.17g survives strtod).
  for (std::size_t g = 0; g < 2; ++g) {
    EXPECT_EQ(groups[g].runs, 4u);
    const MetricSummary* m = groups[g].metric("speedup");
    ASSERT_NE(m, nullptr);
    double sum = 0.0;
    for (std::size_t s = 0; s < 4; ++s)
      sum += outcome.results[g * 4 + s].speedup;
    EXPECT_DOUBLE_EQ(m->mean, sum / 4.0);
    // completion_time aggregates too, and min <= mean <= max.
    const MetricSummary* ct = groups[g].metric("completion_time");
    ASSERT_NE(ct, nullptr);
    EXPECT_LE(ct->min, ct->mean);
    EXPECT_LE(ct->mean, ct->max);
  }

  std::remove(path.c_str());
}

TEST(Aggregate, DistinctSettingsAreDistinctGridPoints) {
  // cwn and cwn:tiekeep=0 differ only in a key that has no label; their
  // runs must not pool into one grid point.
  core::ExperimentConfig base;
  base.topology = "grid:5x5";
  base.workload = "fib:9";
  core::SweepBuilder sweep(base);
  sweep.strategies({"cwn", "cwn:tiekeep=0"}).seeds({1});
  const auto outcome = sweep.run_batch();
  ASSERT_TRUE(outcome.report.ok());

  Aggregator agg;
  for (const auto& r : outcome.results) agg.add(r);
  const auto groups = agg.summarize();
  ASSERT_EQ(groups.size(), 2u);
  EXPECT_EQ(groups[0].runs, 1u);
  EXPECT_EQ(groups[1].runs, 1u);
  EXPECT_NE(groups[0].strategy, groups[1].strategy);
}

TEST(Aggregate, MissingStoreThrows) {
  EXPECT_THROW(Aggregator::from_jsonl_file("definitely_missing_store.jsonl"),
               SimulationError);
  EXPECT_THROW(Aggregator::from_jsonl_files({"also_missing_a.jsonl",
                                             "also_missing_b.jsonl"}),
               SimulationError);
}

TEST(Aggregate, SummarizeOfNamedMetricsMatchesTheFullSummary) {
  Aggregator agg;
  std::uint64_t seed = 1;
  for (const double v : {3.0, 1.0, 4.0, 1.5, 9.0}) {
    agg.add(point("grid-10x10", "cwn", seed, v));
    agg.add(point("grid-10x10", "gm", seed++, v * 2.0));
  }
  const auto full = agg.summarize();
  // Named out of order, one twice, one unknown: the subset comes back once
  // each, in metric_names() order.
  const auto part =
      agg.summarize({"speedup", "completion_time", "speedup", "no_such"});
  ASSERT_EQ(part.size(), full.size());
  for (std::size_t g = 0; g < full.size(); ++g) {
    EXPECT_EQ(part[g].key, full[g].key);
    EXPECT_EQ(part[g].strategy, full[g].strategy);
    EXPECT_EQ(part[g].runs, full[g].runs);
    ASSERT_EQ(part[g].metrics.size(), 2u);
    EXPECT_EQ(part[g].metrics[0].name, "completion_time");
    EXPECT_EQ(part[g].metrics[1].name, "speedup");
    for (const auto& m : part[g].metrics) {
      const MetricSummary* f = full[g].metric(m.name);
      ASSERT_NE(f, nullptr);
      EXPECT_EQ(m.n, f->n);
      EXPECT_EQ(m.mean, f->mean);
      EXPECT_EQ(m.stddev, f->stddev);
      EXPECT_EQ(m.ci95, f->ci95);
      EXPECT_EQ(m.min, f->min);
      EXPECT_EQ(m.max, f->max);
      EXPECT_EQ(m.sorted_samples, f->sorted_samples);
    }
  }
  for (const char* metric : {"speedup", "completion_time"})
    EXPECT_EQ(Aggregator::to_table(part, metric),
              Aggregator::to_table(full, metric));
  EXPECT_TRUE(agg.summarize({})[0].metrics.empty());
}

TEST(Aggregate, RowsFoldLikeTheirLines) {
  // Folding rows made from parsed records (the service's cached path)
  // gives the same groups, samples and dedup as adding the lines.
  std::vector<std::string> lines;
  for (std::uint64_t i = 1; i <= 6; ++i) {
    ExperimentJob job;
    job.index = i;
    job.content_hash = i % 5;  // hash 1 repeats: one duplicate
    lines.push_back(jsonl_record(
        job, point("grid-10x10", i % 2 ? "cwn" : "gm", i, 10.0 * i)));
  }
  Aggregator by_line;
  Aggregator by_row;
  for (const auto& line : lines) {
    ASSERT_TRUE(by_line.add_line(line));
    const auto rec = parse_jsonl_record(line);
    ASSERT_TRUE(rec.has_value());
    by_row.add_row(Aggregator::make_row(rec->content_hash, rec->result));
  }
  EXPECT_EQ(by_row.rows(), 5u);
  EXPECT_EQ(by_row.duplicate_rows(), 1u);
  EXPECT_EQ(by_line.duplicate_rows(), 1u);
  EXPECT_EQ(Aggregator::to_csv(by_row.summarize()),
            Aggregator::to_csv(by_line.summarize()));
}

// ----------------------------------------------------------- edge cases --

TEST(Aggregate, SingleSampleGroupsReportZeroSpreadConsistently) {
  // One seed per grid point: stddev and the CI half-width are undefined;
  // both must come back as exactly 0.0 (never garbage or a table misread),
  // and min == mean == max == the sample.
  Aggregator agg;
  agg.add(point("grid-10x10", "cwn", 1, 42.5));
  const auto groups = agg.summarize();
  ASSERT_EQ(groups.size(), 1u);
  const MetricSummary* m = groups[0].metric("speedup");
  ASSERT_NE(m, nullptr);
  EXPECT_EQ(m->n, 1u);
  EXPECT_DOUBLE_EQ(m->mean, 42.5);
  EXPECT_DOUBLE_EQ(m->stddev, 0.0);
  EXPECT_DOUBLE_EQ(m->ci95, 0.0);
  EXPECT_DOUBLE_EQ(m->min, 42.5);
  EXPECT_DOUBLE_EQ(m->max, 42.5);
  // Every percentile of a single sample is that sample.
  EXPECT_DOUBLE_EQ(m->percentile(0), 42.5);
  EXPECT_DOUBLE_EQ(m->percentile(50), 42.5);
  EXPECT_DOUBLE_EQ(m->percentile(100), 42.5);
}

TEST(Aggregate, PercentileClampsOutOfRangeAndPropagatesNaN) {
  Aggregator agg;
  std::uint64_t seed = 1;
  for (const double v : {10.0, 20.0, 30.0})
    agg.add(point("grid-10x10", "cwn", seed++, v));
  const auto groups = agg.summarize();
  const MetricSummary* m = groups[0].metric("speedup");
  ASSERT_NE(m, nullptr);
  // p outside [0, 100] clamps to the extremes rather than indexing past
  // the sample vector.
  EXPECT_DOUBLE_EQ(m->percentile(-5.0), 10.0);
  EXPECT_DOUBLE_EQ(m->percentile(105.0), 30.0);
  EXPECT_DOUBLE_EQ(m->percentile(-1e300), 10.0);
  EXPECT_DOUBLE_EQ(m->percentile(1e300), 30.0);
  // NaN has no rank: it propagates instead of hitting an undefined cast.
  EXPECT_TRUE(std::isnan(m->percentile(std::nan(""))));
  // An empty summary stays at the documented 0.0.
  MetricSummary empty;
  EXPECT_DOUBLE_EQ(empty.percentile(50), 0.0);
}

TEST(Aggregate, LargeReplicationCountsUseTheAsymptoticCriticalValue) {
  // 40 replications → df = 39 > 30: the CI must use the 1.960 asymptote
  // (a read past the 30-entry t-table would produce garbage here).
  Aggregator agg;
  for (std::uint64_t s = 1; s <= 40; ++s)
    agg.add(point("grid-10x10", "cwn", s, static_cast<double>(s)));
  const auto groups = agg.summarize();
  const MetricSummary* m = groups[0].metric("speedup");
  ASSERT_NE(m, nullptr);
  ASSERT_EQ(m->n, 40u);
  const double expected =
      1.960 * m->stddev / std::sqrt(static_cast<double>(m->n));
  EXPECT_DOUBLE_EQ(m->ci95, expected);
}

// ------------------------------------------------------------ multi-store --

TEST(Aggregate, MultipleStoresPoolIntoOneSweep) {
  // Two "hosts" each hold half the seeds of the same grid point; reading
  // both stores must pool all samples into one group, independent of
  // store order.
  const auto path_a = testing::TempDir() + "oracle_agg_host_a.jsonl";
  const auto path_b = testing::TempDir() + "oracle_agg_host_b.jsonl";
  auto write_store = [](const std::string& path,
                        std::vector<std::pair<std::uint64_t, double>> runs) {
    std::ofstream out(path, std::ios::trunc);
    for (const auto& [seed, speedup] : runs) {
      ExperimentJob job;
      job.index = seed;
      job.content_hash = seed;
      out << jsonl_record(job, point("grid-10x10", "cwn", seed, speedup))
          << '\n';
    }
  };
  write_store(path_a, {{1, 10.0}, {2, 20.0}});
  write_store(path_b, {{3, 30.0}, {4, 40.0}});

  const auto agg = Aggregator::from_jsonl_files({path_a, path_b});
  EXPECT_EQ(agg.rows(), 4u);
  const auto groups = agg.summarize();
  ASSERT_EQ(groups.size(), 1u);
  EXPECT_EQ(groups[0].runs, 4u);
  const MetricSummary* m = groups[0].metric("speedup");
  ASSERT_NE(m, nullptr);
  EXPECT_DOUBLE_EQ(m->mean, 25.0);
  EXPECT_DOUBLE_EQ(m->min, 10.0);
  EXPECT_DOUBLE_EQ(m->max, 40.0);

  // Store order must not change the statistics.
  const auto swapped = Aggregator::from_jsonl_files({path_b, path_a});
  const auto groups2 = swapped.summarize();
  ASSERT_EQ(groups2.size(), 1u);
  EXPECT_DOUBLE_EQ(groups2[0].metric("speedup")->mean, 25.0);

  // Overlapping stores (e.g. the merged canonical store plus a kept
  // per-shard store) must not double-count runs: records are deduped by
  // content hash, so n — and the confidence interval — stay honest.
  const auto overlap =
      Aggregator::from_jsonl_files({path_a, path_b, path_a});
  EXPECT_EQ(overlap.rows(), 4u);
  EXPECT_EQ(overlap.duplicate_rows(), 2u);
  const auto groups3 = overlap.summarize();
  ASSERT_EQ(groups3.size(), 1u);
  EXPECT_EQ(groups3[0].runs, 4u);
  EXPECT_DOUBLE_EQ(groups3[0].metric("speedup")->mean, 25.0);

  std::remove(path_a.c_str());
  std::remove(path_b.c_str());
}

}  // namespace
}  // namespace oracle::exp
