// Tests for the large-machine engine work: scheduler batching and the
// wheel/heap boundary, PE partitioning, topology lookahead, analytic
// routing at scale, and the conservative parallel engine's determinism
// guarantees (trajectory depends on the partition count, never on the
// worker-thread count).

#include <gtest/gtest.h>

#include <random>
#include <string>
#include <vector>

#include "core/presets.hpp"
#include "core/simulator.hpp"
#include "machine/partition.hpp"
#include "sim/scheduler.hpp"
#include "topo/graph_algos.hpp"
#include "topo/grid.hpp"
#include "topo/hypercube.hpp"
#include "topo/tree.hpp"
#include "util/error.hpp"

namespace oracle {
namespace {

// ---------------------------------------------------------------------------
// Scheduler: wheel/heap boundary and batched dispatch.
// ---------------------------------------------------------------------------

TEST(SchedulerBoundary, LastWheelTickStaysOnWheel) {
  // Regression for the horizon off-by-one: with ring R and base b, time
  // b + R - 1 is the last wheel tick; b + R must go to the overflow heap.
  sim::Scheduler s(64);
  ASSERT_EQ(s.ring_ticks(), 64u);
  std::vector<int> order;
  s.schedule_at(0, [&] { order.push_back(0); });  // pins base at 0
  s.schedule_at(63, [&] { order.push_back(63); });
  s.schedule_at(64, [&] { order.push_back(64); });
  const auto c = s.counters();
  EXPECT_EQ(c.wheel_scheduled, 2u);
  EXPECT_EQ(c.heap_scheduled, 1u);
  s.run();
  EXPECT_EQ(order, (std::vector<int>{0, 63, 64}));
  EXPECT_EQ(s.counters().executed, 3u);
}

TEST(SchedulerBoundary, EmptyEngineSlidesInsteadOfHeaping) {
  // A lone far-future timer (sampler / steal-backoff pattern) must slide
  // the wheel base rather than park in the heap.
  sim::Scheduler s(64);
  bool fired = false;
  s.schedule_at(100000, [&] { fired = true; });
  const auto c = s.counters();
  EXPECT_EQ(c.base_slides, 1u);
  EXPECT_EQ(c.wheel_scheduled, 1u);
  EXPECT_EQ(c.heap_scheduled, 0u);
  s.run();
  EXPECT_TRUE(fired);
  EXPECT_EQ(s.now(), 100000);
}

TEST(SchedulerBoundary, StragglerBehindSlidBaseDispatchesFirst) {
  // After an empty-engine slide, an event scheduled *behind* the new base
  // takes the heap and must still dispatch in time order.
  sim::Scheduler s(64);
  std::vector<int> order;
  s.schedule_at(5000, [&] { order.push_back(2); });  // slides base to 5000
  s.schedule_at(10, [&] { order.push_back(1); });    // behind the slid base
  EXPECT_EQ(s.counters().heap_scheduled, 1u);
  s.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(SchedulerBoundary, HeapMigrationPreservesTotalOrder) {
  // Events beyond the horizon must migrate into the wheel as the base
  // advances, before any later (higher-seq) same-time event lands there.
  sim::Scheduler s(64);
  std::vector<int> order;
  s.schedule_at(1, [&] {
    // Scheduled mid-run at an already-migrated tick: same time as the heap
    // event below, but a higher seq — must run after it.
    s.schedule_at(70, [&] { order.push_back(4); });
    order.push_back(1);
  });
  s.schedule_at(70, [&] { order.push_back(3); });  // heap at schedule time
  s.schedule_at(2, [&] { order.push_back(2); });
  s.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4}));
}

TEST(SchedulerBoundary, BatchedRunMatchesStepDispatchOrder) {
  // The batched run() drains each tick's bucket in a tight loop; it must
  // produce exactly the (time, seq) order that single-stepping does, on a
  // soup that exercises wheel, heap, slides, and mid-run scheduling.
  std::mt19937 rng(12345);
  std::uniform_int_distribution<sim::SimTime> when(0, 5000);
  std::uniform_int_distribution<int> extra(0, 9);
  struct Planned {
    sim::SimTime t;
    int id;
    sim::Duration follow;  // follow-up delay scheduled from the callback
  };
  std::vector<Planned> plan;
  for (int i = 0; i < 400; ++i) {
    const int e = extra(rng);
    plan.push_back({when(rng), i, e < 3 ? sim::Duration(e * 50) : -1});
  }

  auto drive = [&plan](bool batched) {
    sim::Scheduler s(128);  // small ring: most far events hit the heap
    std::vector<int> order;
    for (const Planned& p : plan) {
      s.schedule_at(p.t, [&s, &order, p] {
        order.push_back(p.id);
        if (p.follow >= 0)
          s.schedule_after(p.follow, [&order, p] { order.push_back(-p.id); });
      });
    }
    if (batched) {
      s.run();
    } else {
      while (s.step()) {
      }
    }
    return order;
  };

  EXPECT_EQ(drive(true), drive(false));
}

TEST(SchedulerBoundary, RunUntilIsInclusive) {
  // The parallel engine's workers run to window_end - 1 because `until` is
  // inclusive; this pins that contract.
  sim::Scheduler s;
  std::vector<int> order;
  s.schedule_at(5, [&] { order.push_back(5); });
  s.schedule_at(10, [&] { order.push_back(10); });
  s.schedule_at(11, [&] { order.push_back(11); });
  s.run(10);
  EXPECT_EQ(order, (std::vector<int>{5, 10}));
  EXPECT_EQ(s.pending(), 1u);
  s.run();
  EXPECT_EQ(order.back(), 11);
}

// ---------------------------------------------------------------------------
// Partition plans.
// ---------------------------------------------------------------------------

TEST(PartitionPlan, BlocksAreContiguousAndNearEqual) {
  for (std::uint32_t n : {1u, 5u, 64u, 1000u, 4097u}) {
    for (std::uint32_t k : {1u, 2u, 3u, 7u, 16u}) {
      const machine::PartitionPlan plan = machine::make_partition_plan(n, k);
      EXPECT_LE(plan.num_shards, n);
      EXPECT_GE(plan.num_shards, 1u);
      std::uint32_t total = 0, min_size = n, max_size = 0;
      for (std::uint32_t s = 0; s < plan.num_shards; ++s) {
        const topo::NodeId b = plan.begin(s), e = plan.end(s);
        ASSERT_LE(b, e);
        const std::uint32_t size = e - b;
        total += size;
        min_size = std::min(min_size, size);
        max_size = std::max(max_size, size);
        for (topo::NodeId pe = b; pe < e; ++pe)
          ASSERT_EQ(plan.shard_of(pe), s) << "n=" << n << " k=" << k;
      }
      EXPECT_EQ(total, n);
      EXPECT_LE(max_size - min_size, 1u) << "n=" << n << " k=" << k;
      EXPECT_EQ(plan.begin(0), 0u);
      EXPECT_EQ(plan.end(plan.num_shards - 1), n);
    }
  }
}

TEST(PartitionPlan, AutoShardCountScalesWithMachineSize) {
  EXPECT_EQ(machine::auto_num_shards(100), 1u);   // small: sharding loses
  EXPECT_EQ(machine::auto_num_shards(8192), 2u);  // one shard per ~4096 PEs
  EXPECT_EQ(machine::auto_num_shards(1'000'000), 16u);  // capped
  const machine::PartitionPlan plan = machine::make_partition_plan(64, 0);
  EXPECT_EQ(plan.num_shards, 1u);
}

// ---------------------------------------------------------------------------
// Lookahead.
// ---------------------------------------------------------------------------

machine::MachineConfig lookahead_cfg() {
  machine::MachineConfig cfg;
  cfg.hop_latency = 4;
  cfg.ctrl_latency = 2;
  return cfg;
}

TEST(Lookahead, GridHorizonIsMinCrossLinkLatency) {
  const topo::Grid2D grid(8, 8, false);
  const auto plan = machine::make_partition_plan(grid.num_nodes(), 4);
  const machine::Lookahead la =
      machine::compute_lookahead(grid, plan, lookahead_cfg());
  // word_time = 0: the cheapest message is a control word at ctrl_latency.
  EXPECT_EQ(la.horizon, 2);
  EXPECT_EQ(la.horizon, machine::link_min_latency(lookahead_cfg()));
  ASSERT_FALSE(la.edges.empty());
  for (std::size_t i = 0; i < la.edges.size(); ++i) {
    EXPECT_NE(la.edges[i].from, la.edges[i].to);
    EXPECT_EQ(la.edges[i].min_latency, 2);
    if (i > 0) {  // sorted by (from, to), no duplicates
      const auto &a = la.edges[i - 1], &b = la.edges[i];
      EXPECT_TRUE(a.from < b.from || (a.from == b.from && a.to < b.to));
    }
  }
  // Row-major grid split into contiguous row bands: links are undirected,
  // so every cross edge appears in both directions.
  for (const auto& e : la.edges) {
    bool reversed = false;
    for (const auto& r : la.edges)
      reversed |= (r.from == e.to && r.to == e.from);
    EXPECT_TRUE(reversed);
  }
}

TEST(Lookahead, HypercubeAndTreeHorizons) {
  machine::MachineConfig cfg = lookahead_cfg();
  cfg.word_time = 3;  // size-proportional costs: min message is ctrl (size 1)
  const sim::Duration expected = machine::link_min_latency(cfg);
  EXPECT_EQ(expected, 2 + 3 * 1);

  const topo::Hypercube cube(6);
  const auto cube_la = machine::compute_lookahead(
      cube, machine::make_partition_plan(cube.num_nodes(), 4), cfg);
  EXPECT_EQ(cube_la.horizon, expected);
  EXPECT_FALSE(cube_la.edges.empty());

  const topo::KaryTree tree(3, 4);
  const auto tree_la = machine::compute_lookahead(
      tree, machine::make_partition_plan(tree.num_nodes(), 4), cfg);
  EXPECT_EQ(tree_la.horizon, expected);
  EXPECT_FALSE(tree_la.edges.empty());
}

TEST(Lookahead, SinglePartitionNeverSynchronizes) {
  const topo::Grid2D grid(8, 8, false);
  const auto plan = machine::make_partition_plan(grid.num_nodes(), 1);
  const machine::Lookahead la =
      machine::compute_lookahead(grid, plan, lookahead_cfg());
  EXPECT_EQ(la.horizon, sim::kTimeInfinity);
  EXPECT_TRUE(la.edges.empty());
}

TEST(Lookahead, ZeroLatencyModelIsRejected) {
  const topo::Grid2D grid(8, 8, false);
  const auto plan = machine::make_partition_plan(grid.num_nodes(), 4);
  machine::MachineConfig cfg;
  cfg.hop_latency = 0;
  cfg.ctrl_latency = 0;
  cfg.word_time = 0;
  EXPECT_THROW(machine::compute_lookahead(grid, plan, cfg), ConfigError);
  try {
    machine::compute_lookahead(grid, plan, cfg);
  } catch (const ConfigError& e) {
    // The error must point the user at the serial engine.
    EXPECT_NE(std::string(e.what()).find("--sim-threads 1"), std::string::npos);
  }
}

// ---------------------------------------------------------------------------
// Analytic routing (the path Machine uses past kExactRoutingMaxNodes).
// ---------------------------------------------------------------------------

void expect_analytic_routing_is_shortest_path(const topo::Topology& t) {
  const topo::DistanceMatrix dm(t);
  const std::uint32_t n = t.num_nodes();
  for (topo::NodeId from = 0; from < n; ++from) {
    for (topo::NodeId to = 0; to < n; ++to) {
      if (from == to) continue;
      const topo::NodeId nh = t.analytic_next_hop(from, to);
      ASSERT_NE(nh, topo::kInvalidNode)
          << t.name() << " " << from << "->" << to;
      // One hop toward the destination along a shortest path.
      ASSERT_EQ(dm.distance(from, nh), 1u)
          << t.name() << " " << from << "->" << to << " via " << nh;
      ASSERT_EQ(dm.distance(nh, to), dm.distance(from, to) - 1)
          << t.name() << " " << from << "->" << to << " via " << nh;
    }
  }
}

TEST(AnalyticRouting, OpenGridFollowsShortestPaths) {
  expect_analytic_routing_is_shortest_path(topo::Grid2D(6, 5, false));
}

TEST(AnalyticRouting, TorusFollowsShortestPaths) {
  expect_analytic_routing_is_shortest_path(topo::Grid2D(6, 5, true));
  expect_analytic_routing_is_shortest_path(topo::Grid2D(4, 4, true));
}

TEST(AnalyticRouting, HypercubeFollowsShortestPaths) {
  expect_analytic_routing_is_shortest_path(topo::Hypercube(6));
}

TEST(AnalyticRouting, TreeFollowsShortestPaths) {
  expect_analytic_routing_is_shortest_path(topo::KaryTree(3, 4));
  expect_analytic_routing_is_shortest_path(topo::KaryTree(2, 5));
}

TEST(AnalyticRouting, DiameterHintsMatchExactDiameter) {
  const topo::Grid2D open_grid(6, 5, false);
  EXPECT_EQ(open_grid.diameter_hint(),
            static_cast<std::int64_t>(topo::DistanceMatrix(open_grid).diameter()));
  const topo::Grid2D torus(6, 5, true);
  EXPECT_EQ(torus.diameter_hint(),
            static_cast<std::int64_t>(topo::DistanceMatrix(torus).diameter()));
  const topo::Hypercube cube(7);
  EXPECT_EQ(cube.diameter_hint(),
            static_cast<std::int64_t>(topo::DistanceMatrix(cube).diameter()));
  const topo::KaryTree tree(3, 4);
  EXPECT_EQ(tree.diameter_hint(),
            static_cast<std::int64_t>(topo::DistanceMatrix(tree).diameter()));
}

// ---------------------------------------------------------------------------
// Parallel engine determinism.
// ---------------------------------------------------------------------------

core::ExperimentConfig parallel_cfg(const std::string& strategy,
                                    const std::string& workload,
                                    std::uint64_t seed) {
  core::ExperimentConfig cfg;
  cfg.topology = "grid:8x8";
  cfg.strategy = strategy;
  cfg.workload = workload;
  cfg.machine.hop_latency = 2;
  cfg.machine.ctrl_latency = 1;
  cfg.machine.seed = seed;
  cfg.machine.sim_partitions = 4;
  return cfg;
}

void expect_same_run(const stats::RunResult& a, const stats::RunResult& b) {
  EXPECT_EQ(a.completion_time, b.completion_time);
  EXPECT_EQ(a.goals_executed, b.goals_executed);
  EXPECT_EQ(a.total_work, b.total_work);
  EXPECT_EQ(a.events_executed, b.events_executed);
  EXPECT_EQ(a.goal_transmissions, b.goal_transmissions);
  EXPECT_EQ(a.response_transmissions, b.response_transmissions);
  EXPECT_EQ(a.control_transmissions, b.control_transmissions);
  EXPECT_EQ(a.pe_goals, b.pe_goals);
  ASSERT_EQ(a.pe_utilization.size(), b.pe_utilization.size());
  for (std::size_t i = 0; i < a.pe_utilization.size(); ++i)
    EXPECT_DOUBLE_EQ(a.pe_utilization[i], b.pe_utilization[i]) << "pe " << i;
  ASSERT_EQ(a.goal_hops.buckets(), b.goal_hops.buckets());
  for (std::size_t h = 0; h < a.goal_hops.buckets(); ++h)
    EXPECT_EQ(a.goal_hops.count(h), b.goal_hops.count(h)) << "hops " << h;
  EXPECT_DOUBLE_EQ(a.avg_channel_utilization, b.avg_channel_utilization);
  EXPECT_DOUBLE_EQ(a.max_channel_utilization, b.max_channel_utilization);
}

TEST(ParallelEngine, MetricsIdenticalAcrossThreadCounts) {
  // The core reproducibility contract: for a fixed partition count the
  // trajectory is a function of the model alone — any worker count (even
  // more workers than shards) must produce the same metrics.
  // The DLM's column buses span two shards with several members in each,
  // so bus broadcasts and unicasts cross shard edges.
  const char* strategies[] = {"cwn:radius=3,horizon=2",
                              "gm:hwm=2,lwm=1,interval=20"};
  for (const char* topology : {"grid:8x8", "dlm:4:8x8"}) {
    for (const char* strategy : strategies) {
      for (std::uint64_t seed : {1ull, 42ull}) {
        core::ExperimentConfig cfg = parallel_cfg(strategy, "fib:11", seed);
        cfg.topology = topology;
        cfg.machine.sim_threads = 2;
        const stats::RunResult ref = core::run_experiment(cfg);
        for (std::uint32_t threads : {4u, 8u}) {
          cfg.machine.sim_threads = threads;
          const stats::RunResult got = core::run_experiment(cfg);
          SCOPED_TRACE(std::string(topology) + " " + strategy + " seed " +
                       std::to_string(seed) + " threads " +
                       std::to_string(threads));
          expect_same_run(ref, got);
        }
      }
    }
  }
}

/// FNV-1a over a run's per-PE goal counts: a compact fingerprint of where
/// every goal executed.
std::uint64_t pe_goals_digest(const stats::RunResult& r) {
  std::uint64_t h = 1469598103934665603ull;
  for (const std::uint64_t g : r.pe_goals) {
    h ^= g;
    h *= 1099511628211ull;
  }
  return h;
}

struct PinnedRun {
  const char* topology;
  std::uint32_t partitions;
  std::int64_t completion;
  std::uint64_t events;
  std::uint64_t goal_tx, response_tx, control_tx;
  std::uint64_t goals;
  std::uint64_t pe_goals_digest;
};

TEST(ParallelEngine, BroadcastTrajectoryIsPinned) {
  // Recorded trajectories of parallel CWN runs with periodic load
  // broadcasts. Any change to event order, channel contention, or the
  // split of a cross-shard bus between local and remote members moves
  // these numbers. The DLM run puts buses across shard boundaries, with
  // several members of one bus inside the same shard.
  const PinnedRun pins[] = {
      {"hypercube:12", 8, 7612, 1228479, 79998, 76770, 933888, 39999,
       5679894822849712060ull},
      {"dlm:5:16x16", 4, 28526, 421663, 79998, 68098, 72704, 39999,
       7956312585685333598ull},
  };
  for (const PinnedRun& pin : pins) {
    core::ExperimentConfig cfg;
    cfg.topology = pin.topology;
    cfg.strategy = "cwn:radius=2,horizon=2,interval=400";
    cfg.workload = "dc:1:20000";
    cfg.machine.hop_latency = 4;
    cfg.machine.ctrl_latency = 2;
    cfg.machine.seed = 1;
    cfg.machine.sim_threads = 4;
    cfg.machine.sim_partitions = pin.partitions;
    const stats::RunResult r = core::run_experiment(cfg);
    SCOPED_TRACE(pin.topology);
    EXPECT_EQ(r.completion_time, pin.completion);
    EXPECT_EQ(r.events_executed, pin.events);
    EXPECT_EQ(r.goal_transmissions, pin.goal_tx);
    EXPECT_EQ(r.response_transmissions, pin.response_tx);
    EXPECT_EQ(r.control_transmissions, pin.control_tx);
    EXPECT_EQ(r.goals_executed, pin.goals);
    EXPECT_EQ(pe_goals_digest(r), pin.pe_goals_digest);
  }
}

TEST(ParallelEngine, RepeatRunsAreDeterministic) {
  core::ExperimentConfig cfg =
      parallel_cfg("cwn:radius=3,horizon=2", "dc:1:144", 7);
  cfg.machine.sim_threads = 4;
  const stats::RunResult a = core::run_experiment(cfg);
  const stats::RunResult b = core::run_experiment(cfg);
  expect_same_run(a, b);
}

TEST(ParallelEngine, ThreadsOneIsTheSerialEngine) {
  // sim_threads == 1 must take the serial golden path even when a partition
  // count is configured: identical to a run with the knobs untouched.
  core::ExperimentConfig cfg =
      parallel_cfg("cwn:radius=9,horizon=2", "fib:13", 42);
  cfg.machine.sim_threads = 1;
  cfg.machine.sim_partitions = 8;
  const stats::RunResult a = core::run_experiment(cfg);

  core::ExperimentConfig plain = cfg;
  plain.machine.sim_threads = 1;
  plain.machine.sim_partitions = 0;
  const stats::RunResult b = core::run_experiment(plain);
  expect_same_run(a, b);
}

TEST(ParallelEngine, AgreesWithSerialOnConservedQuantities) {
  // Completion times may differ between K schedulers and one (control
  // traffic interleaves differently), but conserved quantities cannot.
  core::ExperimentConfig cfg =
      parallel_cfg("cwn:radius=3,horizon=2", "fib:12", 3);
  cfg.machine.sim_threads = 1;
  cfg.machine.sim_partitions = 0;
  const stats::RunResult serial = core::run_experiment(cfg);
  cfg.machine.sim_threads = 4;
  cfg.machine.sim_partitions = 4;
  const stats::RunResult par = core::run_experiment(cfg);
  EXPECT_EQ(par.goals_executed, serial.goals_executed);
  EXPECT_EQ(par.total_work, serial.total_work);
  EXPECT_GE(par.completion_time, par.critical_path);
}

TEST(ParallelEngine, RejectsSamplingAndTracing) {
  // The sampler and the machine trace are global-clock features; the
  // parallel engine refuses them up front rather than recording garbage.
  core::ExperimentConfig cfg =
      parallel_cfg("cwn:radius=3,horizon=2", "fib:10", 1);
  cfg.machine.sim_threads = 2;
  cfg.machine.sample_interval = 10;
  EXPECT_THROW(core::run_experiment(cfg), ConfigError);
  cfg.machine.sample_interval = 0;
  cfg.machine.trace_capacity = 128;
  EXPECT_THROW(core::run_experiment(cfg), ConfigError);
  cfg.machine.trace_capacity = 0;
  EXPECT_NO_THROW(core::run_experiment(cfg));
}

TEST(ParallelEngine, MillionPePresetIsWellFormed) {
  // Shape-check only — building the 10^6-node topology is bench territory.
  const core::ExperimentConfig cfg = core::paper::million_pe_config();
  EXPECT_EQ(cfg.topology, "torus:1000x1000");
  EXPECT_EQ(cfg.workload, "dc:1:2000000");
  EXPECT_NE(cfg.strategy.find("cwn"), std::string::npos);
  EXPECT_EQ(cfg.machine.sim_partitions, 16u);
  EXPECT_EQ(cfg.machine.sim_threads, 1u);  // engage via --sim-threads
  EXPECT_GE(cfg.machine.max_events, 1'000'000'000ull);
  EXPECT_EQ(cfg.machine.sample_interval, 0);
  EXPECT_EQ(cfg.machine.trace_capacity, 0u);
}

}  // namespace
}  // namespace oracle
