// Microbenchmarks of the discrete-event substrate (google-benchmark):
// event scheduling throughput, cascade latency, cancellation churn,
// link-channel contention, topology/routing construction, and a small
// end-to-end simulation. These quantify the cost of the ORACLE
// substitution (DESIGN.md §2).
//
// The scheduler benchmarks run twice: once on the live engine (inline
// callbacks + message pool + indexed 4-ary heap + O(1) cancel) and once on
// the frozen PR-1 baseline (std::function + binary heap + O(n) cancel,
// legacy_event_engine.hpp), so every build reports the before/after ratio.
// Each pair routes the same logical workload — machine::Message goal hops —
// through each engine's own idiom: the baseline captures the ~100-byte
// message by value (heap-allocated by std::function on every event, exactly
// what the machine model used to pay per hop); the live engine parks it in
// a MessagePool and captures a pool index inline.

#include <benchmark/benchmark.h>

#include <cstdint>
#include <vector>

#include "core/simulator.hpp"
#include "legacy_event_engine.hpp"
#include "machine/channel.hpp"
#include "machine/machine.hpp"
#include "machine/message.hpp"
#include "sim/scheduler.hpp"
#include "topo/dlm.hpp"
#include "topo/factory.hpp"
#include "topo/graph_algos.hpp"
#include "topo/grid.hpp"

namespace {

using namespace oracle;

machine::Message hop_message(std::uint64_t goal_id) {
  machine::Message m = machine::Message::goal(
      goal_id, workload::GoalSpec{static_cast<std::int64_t>(goal_id), 0, 3},
      goal_id / 2, 7);
  m.hops = 2;
  m.src = 3;
  return m;
}

// Engines are constructed once and reused across iterations (delays are
// relative via schedule_after): the steady state of a long-lived Machine
// run, not per-run setup cost.

void BM_SchedulerEventThroughput(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  sim::Scheduler sched;
  sched.reserve(static_cast<std::size_t>(n));
  machine::MessagePool pool;
  pool.reserve(static_cast<std::size_t>(n));
  for (auto _ : state) {
    std::uint64_t sum = 0;
    for (int i = 0; i < n; ++i) {
      const std::uint32_t slot =
          pool.put(hop_message(static_cast<std::uint64_t>(i)));
      sched.schedule_after(i % 64, [&pool, slot, &sum] {
        const machine::Message m = pool.take(slot);
        sum += m.goal_id + m.hops;
      });
    }
    sched.run();
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SchedulerEventThroughput)->Arg(1024)->Arg(65536);

void BM_LegacySchedulerEventThroughput(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  bench::legacy::Scheduler sched;
  sched.reserve(static_cast<std::size_t>(n));
  for (auto _ : state) {
    std::uint64_t sum = 0;
    for (int i = 0; i < n; ++i) {
      sched.schedule_after(
          i % 64, [m = hop_message(static_cast<std::uint64_t>(i)), &sum] {
            sum += m.goal_id + m.hops;
          });
    }
    sched.run();
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_LegacySchedulerEventThroughput)->Arg(1024)->Arg(65536);

// Each event forwards its message one hop and reschedules itself: measures
// per-event latency, not heap bulk behaviour.

struct LiveCascadeHop {
  sim::Scheduler* sched;
  machine::MessagePool* pool;
  int* remaining;
  std::uint32_t slot;

  void operator()() const {
    if (--*remaining > 0) {
      // Forward one hop: the message stays pooled, as in
      // Machine::transmit_pooled — only transport fields are touched.
      pool->at(slot).hops += 1;
      sched->schedule_after(1, *this);
    } else {
      pool->release(slot);
    }
  }
};

void BM_SchedulerCascade(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  sim::Scheduler sched;
  sched.reserve(16);
  machine::MessagePool pool;
  pool.reserve(16);
  for (auto _ : state) {
    int remaining = n;
    sched.schedule_after(0, LiveCascadeHop{&sched, &pool, &remaining,
                                           pool.put(hop_message(1))});
    sched.run();
    benchmark::DoNotOptimize(remaining);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SchedulerCascade)->Arg(65536);

struct LegacyCascadeHop {
  bench::legacy::Scheduler* sched;
  int* remaining;
  machine::Message msg;

  void operator()() const {
    if (--*remaining > 0) {
      LegacyCascadeHop next{sched, remaining, msg};
      next.msg.hops += 1;
      sched->schedule_after(1, std::move(next));
    }
  }
};

void BM_LegacySchedulerCascade(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  bench::legacy::Scheduler sched;
  sched.reserve(16);
  for (auto _ : state) {
    int remaining = n;
    sched.schedule_after(0,
                         LegacyCascadeHop{&sched, &remaining, hop_message(1)});
    sched.run();
    benchmark::DoNotOptimize(remaining);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_LegacySchedulerCascade)->Arg(65536);

/// Timer-reset churn: schedule n events, cancel every other one, run the
/// rest. The live engine cancels in O(1) via the generation-stamped slot
/// map; the legacy engine scans the heap per cancel (O(n)).
template <typename Sched>
void run_cancel_churn(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Sched sched;
  sched.reserve(static_cast<std::size_t>(n));
  std::uint64_t fired = 0;
  using Handle = decltype(sched.schedule_after(0, [&fired] { ++fired; }));
  std::vector<Handle> handles;
  handles.reserve(static_cast<std::size_t>(n));
  for (auto _ : state) {
    handles.clear();
    for (int i = 0; i < n; ++i)
      handles.push_back(
          sched.schedule_after(1 + i % 97, [&fired] { ++fired; }));
    for (int i = 0; i < n; i += 2)
      benchmark::DoNotOptimize(sched.cancel(handles[i]));
    sched.run();
    benchmark::DoNotOptimize(fired);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}

void BM_SchedulerCancelChurn(benchmark::State& state) {
  run_cancel_churn<sim::Scheduler>(state);
}
BENCHMARK(BM_SchedulerCancelChurn)->Arg(4096);

void BM_LegacySchedulerCancelChurn(benchmark::State& state) {
  run_cancel_churn<bench::legacy::Scheduler>(state);
}
BENCHMARK(BM_LegacySchedulerCancelChurn)->Arg(4096);

/// Counts finished link transactions (the LinkChannels sink).
struct CountingSink {
  int done = 0;
  void deliver_hop(const machine::Hop&) { ++done; }
};

void BM_ChannelContention(benchmark::State& state) {
  for (auto _ : state) {
    sim::Scheduler sched;
    machine::Channel link;
    CountingSink sink;
    machine::LinkChannels<CountingSink> channels(sched, &link, sink);
    const int n = static_cast<int>(state.range(0));
    for (int i = 0; i < n; ++i)
      channels.occupy(0, 3, machine::Hop{static_cast<std::uint32_t>(i), 0,
                                         machine::HopKind::Unicast});
    sched.run();
    benchmark::DoNotOptimize(sink.done);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_ChannelContention)->Arg(4096);

void BM_TopologyBuildGrid(benchmark::State& state) {
  for (auto _ : state) {
    topo::Grid2D grid(20, 20, false);
    benchmark::DoNotOptimize(grid.num_links());
  }
}
BENCHMARK(BM_TopologyBuildGrid);

void BM_TopologyBuildDlm(benchmark::State& state) {
  for (auto _ : state) {
    topo::DoubleLatticeMesh dlm(5, 20, 20);
    benchmark::DoNotOptimize(dlm.num_links());
  }
}
BENCHMARK(BM_TopologyBuildDlm);

void BM_RoutingTableBuild(benchmark::State& state) {
  topo::Grid2D grid(20, 20, false);
  for (auto _ : state) {
    topo::RoutingTable routes(grid);
    benchmark::DoNotOptimize(routes.next_hop(0, 399));
  }
}
BENCHMARK(BM_RoutingTableBuild);

/// What a batch job actually pays for its topology once the shared cache
/// is warm (vs BM_RoutingTableBuild, the per-job cost it replaced).
void BM_SharedTopologyCacheHit(benchmark::State& state) {
  topo::clear_topology_cache();
  (void)topo::make_topology_shared("grid:20x20");
  for (auto _ : state) {
    const topo::SharedTopology shared = topo::make_topology_shared("grid:20x20");
    benchmark::DoNotOptimize(shared.routing->next_hop(0, 399));
  }
}
BENCHMARK(BM_SharedTopologyCacheHit);

void BM_EndToEndSmallRun(benchmark::State& state) {
  for (auto _ : state) {
    core::ExperimentConfig cfg;
    cfg.topology = "grid:5x5";
    cfg.strategy = "cwn:radius=9,horizon=2";
    cfg.workload = "fib:11";
    auto r = core::run_experiment(cfg);
    benchmark::DoNotOptimize(r.completion_time);
  }
}
BENCHMARK(BM_EndToEndSmallRun);

}  // namespace

BENCHMARK_MAIN();
