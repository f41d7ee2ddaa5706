// Tests for the allocation-free event engine introduced with the inline-
// callback scheduler: util::InlineFunction semantics, util::RingQueue,
// machine::MessagePool, scheduler stress against a reference model
// (including the timing-wheel / overflow-heap boundary), handle-generation
// reuse, and the golden guarantee that batch JSONL output is byte-identical
// to the pre-refactor std::function + binary-heap engine.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/presets.hpp"
#include "core/sweep.hpp"
#include "exp/result_sink.hpp"
#include "lb/strategy.hpp"
#include "machine/machine.hpp"
#include "sim/scheduler.hpp"
#include "topo/factory.hpp"
#include "util/inline_function.hpp"
#include "util/ring_queue.hpp"
#include "util/rng.hpp"
#include "util/string_util.hpp"
#include "workload/workload.hpp"

namespace oracle {
namespace {

// ------------------------------------------------------- InlineFunction --

TEST(InlineFunction, EmptyByDefaultAndAfterReset) {
  util::InlineFunction<int(), 48> f;
  EXPECT_FALSE(static_cast<bool>(f));
  f = [] { return 7; };
  EXPECT_TRUE(static_cast<bool>(f));
  EXPECT_EQ(f(), 7);
  f.reset();
  EXPECT_FALSE(static_cast<bool>(f));
  EXPECT_TRUE(f == nullptr);
}

TEST(InlineFunction, MoveTransfersOwnership) {
  int hits = 0;
  util::InlineFunction<void(), 48> a = [&hits] { ++hits; };
  util::InlineFunction<void(), 48> b = std::move(a);
  EXPECT_FALSE(static_cast<bool>(a));  // NOLINT: moved-from is empty
  b();
  EXPECT_EQ(hits, 1);
}

TEST(InlineFunction, NonTrivialCallableDestroyed) {
  // A shared_ptr capture is non-trivial: the ops-table path must run its
  // destructor on reset and exactly once.
  auto token = std::make_shared<int>(42);
  std::weak_ptr<int> watch = token;
  {
    util::InlineFunction<int(), 48> f = [token] { return *token; };
    token.reset();
    EXPECT_EQ(f(), 42);
    EXPECT_FALSE(watch.expired());
    util::InlineFunction<int(), 48> g = std::move(f);
    EXPECT_EQ(g(), 42);
  }
  EXPECT_TRUE(watch.expired());
}

TEST(InlineFunction, EmplaceReplacesInPlace) {
  util::InlineFunction<int(), 48> f = [] { return 1; };
  f.emplace([] { return 2; });
  EXPECT_EQ(f(), 2);
}

TEST(InlineFunction, PassesArguments) {
  util::InlineFunction<int(int, int), 16> add = [](int a, int b) {
    return a + b;
  };
  EXPECT_EQ(add(2, 40), 42);
}

// ------------------------------------------------------------ RingQueue --

TEST(RingQueue, FifoAcrossGrowthAndWrap) {
  util::RingQueue<int> q;
  // Interleave pushes and pops so head wraps around the backing buffer.
  int next_push = 0;
  int next_pop = 0;
  for (int round = 0; round < 100; ++round) {
    for (int i = 0; i < 3; ++i) q.push_back(next_push++);
    for (int i = 0; i < 2; ++i) EXPECT_EQ(q.pop_front(), next_pop++);
  }
  while (!q.empty()) EXPECT_EQ(q.pop_front(), next_pop++);
  EXPECT_EQ(next_pop, next_push);
}

TEST(RingQueue, EraseAtPreservesOrder) {
  util::RingQueue<int> q;
  for (int i = 0; i < 10; ++i) q.push_back(i);
  q.erase_at(0);   // shift-short side: front
  q.erase_at(8);   // back (now 9 elements, last index 8)
  q.erase_at(3);   // middle
  std::vector<int> rest;
  while (!q.empty()) rest.push_back(q.pop_front());
  EXPECT_EQ(rest, (std::vector<int>{1, 2, 3, 5, 6, 7, 8}));
}

TEST(RingQueue, EraseAtAfterHeadWrapFrontMiddleBack) {
  // Drive head_ past the end of the 8-slot backing buffer so the live
  // range wraps, then erase at the front, middle, and back of the wrapped
  // range — the left-shift and right-shift paths both cross the seam.
  for (int erase_pos : {0, 2, 4}) {  // front, middle, back (5 live elements)
    util::RingQueue<int> q;
    for (int i = 0; i < 8; ++i) q.push_back(i);      // fill to capacity 8
    for (int i = 0; i < 6; ++i) q.pop_front();       // head_ = 6
    for (int i = 8; i < 11; ++i) q.push_back(i);     // live: 6..10, wrapped
    ASSERT_EQ(q.size(), 5u);

    std::vector<int> expected = {6, 7, 8, 9, 10};
    q.erase_at(static_cast<std::size_t>(erase_pos));
    expected.erase(expected.begin() + erase_pos);

    std::vector<int> rest;
    while (!q.empty()) rest.push_back(q.pop_front());
    EXPECT_EQ(rest, expected) << "erase_at(" << erase_pos << ") after wrap";
  }
}

TEST(RingQueue, EraseAtMatchesReferenceModelUnderChurn) {
  // Exhaustive-ish regression: every erase position against a std::vector
  // reference model while the head position churns across the buffer.
  util::RingQueue<int> q;
  std::vector<int> model;
  int next = 0;
  for (int round = 0; round < 200; ++round) {
    for (int i = 0; i < 3; ++i) {
      q.push_back(next);
      model.push_back(next);
      ++next;
    }
    const std::size_t at = static_cast<std::size_t>(round) % q.size();
    q.erase_at(at);
    model.erase(model.begin() + static_cast<std::ptrdiff_t>(at));
    if (round % 3 == 0) {
      ASSERT_EQ(q.pop_front(), model.front());
      model.erase(model.begin());
    }
    ASSERT_EQ(q.size(), model.size());
    for (std::size_t i = 0; i < model.size(); ++i)
      ASSERT_EQ(q[i], model[i]) << "round " << round << " index " << i;
  }
}

TEST(RingQueue, EraseAtSingleElementAndMoveOnlyPayloads) {
  // The i == 0 / i == size-1 fast paths must reset the vacated slot, so a
  // move-only resource type is actually released, not retained.
  util::RingQueue<std::unique_ptr<int>> q;
  q.push_back(std::make_unique<int>(1));
  q.erase_at(0);
  EXPECT_TRUE(q.empty());

  for (int i = 0; i < 5; ++i) q.push_back(std::make_unique<int>(i));
  q.erase_at(4);  // back fast path
  q.erase_at(1);  // left-shift path (i < size - i - 1)
  q.erase_at(2);  // back fast path again (now the last index)
  ASSERT_EQ(q.size(), 2u);
  EXPECT_EQ(*q[0], 0);
  EXPECT_EQ(*q[1], 2);
}

TEST(RingQueue, ReservePreallocates) {
  util::RingQueue<int> q;
  q.reserve(100);
  const std::size_t cap = q.capacity();
  EXPECT_GE(cap, 100u);
  for (int i = 0; i < 100; ++i) q.push_back(i);
  EXPECT_EQ(q.capacity(), cap);  // no regrow happened
}

// ---------------------------------------------------------- MessagePool --

TEST(MessagePool, SlotsAreRecycled) {
  machine::MessagePool pool;
  const std::uint32_t a = pool.put(machine::Message::control(1, 10));
  const std::uint32_t b = pool.put(machine::Message::control(2, 20));
  EXPECT_NE(a, b);
  EXPECT_EQ(pool.in_flight(), 2u);
  EXPECT_EQ(pool.take(a).ctrl_value, 10);
  const std::uint32_t c = pool.put(machine::Message::control(3, 30));
  EXPECT_EQ(c, a);  // freed slot reused
  EXPECT_EQ(pool.at(c).ctrl_value, 30);
  pool.at(c).ctrl_value = 31;  // in-place mutation (multi-hop forwarding)
  EXPECT_EQ(pool.take(c).ctrl_value, 31);
  pool.release(b);
  EXPECT_EQ(pool.in_flight(), 0u);
}

TEST(MessagePool, SharedSlotLivesUntilLastRelease) {
  // A broadcast parks one payload for n deliveries: put() holds one
  // reference, each delivery retains one, and the broadcaster drops its
  // own once every delivery is issued.
  machine::MessagePool pool;
  const std::uint32_t shared = pool.put(machine::Message::control(1, 7));
  constexpr int kDeliveries = 3;
  for (int i = 0; i < kDeliveries; ++i) pool.retain(shared);
  pool.release(shared);  // the broadcaster's reference
  EXPECT_EQ(pool.in_flight(), 1u);  // one slot, however many holders

  for (int i = 0; i < kDeliveries; ++i) {
    // Until the n-th release the slot is live: new payloads land elsewhere
    // and the shared payload is intact.
    const std::uint32_t other = pool.put(machine::Message::control(2, 9));
    EXPECT_NE(other, shared) << "delivery " << i;
    EXPECT_EQ(pool.at(shared).ctrl_value, 7) << "delivery " << i;
    EXPECT_EQ(pool.in_flight(), 2u);
    pool.release(other);
    pool.release(shared);
  }
  EXPECT_EQ(pool.in_flight(), 0u);
  // Freed slots are reused LIFO; the shared slot went last, so it is next.
  EXPECT_EQ(pool.put(machine::Message::control(3, 11)), shared);
}

// ------------------------------------------- scheduler: stress vs model --

/// Reference model: the (time, seq) total order the scheduler promises.
struct ModelEvent {
  sim::SimTime time;
  std::uint64_t seq;
  int tag;
};

TEST(SchedulerStress, InterleavedScheduleCancelMatchesReferenceModel) {
  // Randomized schedule/cancel interleaving, with delays spanning the
  // timing wheel and the overflow heap (> 1024 ticks ahead), checked
  // against a sort-by-(time, seq) reference. Seeded: failures reproduce.
  Rng rng(20260729);
  sim::Scheduler sched;
  std::vector<int> fired;
  std::vector<ModelEvent> expected;
  std::vector<std::pair<sim::EventHandle, ModelEvent>> pending;
  std::uint64_t seq = 0;

  for (int i = 0; i < 5000; ++i) {
    const std::uint32_t action = rng.below(10);
    if (action < 7 || pending.empty()) {
      // Mix near (wheel), boundary, and far (overflow) delays.
      const std::uint32_t kind = rng.below(4);
      const sim::Duration delay =
          kind == 0   ? static_cast<sim::Duration>(rng.below(8))
          : kind == 1 ? static_cast<sim::Duration>(rng.below(1024))
          : kind == 2 ? static_cast<sim::Duration>(1000 + rng.below(64))
                      : static_cast<sim::Duration>(rng.below(5000));
      const ModelEvent ev{static_cast<sim::SimTime>(delay), seq++, i};
      auto handle = sched.schedule_at(ev.time, [&fired, tag = ev.tag] {
        fired.push_back(tag);
      });
      pending.emplace_back(handle, ev);
    } else {
      const std::size_t victim = rng.below(
          static_cast<std::uint32_t>(pending.size()));
      EXPECT_TRUE(sched.cancel(pending[victim].first));
      EXPECT_FALSE(sched.cancel(pending[victim].first));  // double-cancel
      pending.erase(pending.begin() + static_cast<std::ptrdiff_t>(victim));
    }
  }
  for (const auto& [handle, ev] : pending) expected.push_back(ev);
  EXPECT_EQ(sched.pending(), expected.size());

  sched.run();

  std::sort(expected.begin(), expected.end(),
            [](const ModelEvent& a, const ModelEvent& b) {
              return a.time != b.time ? a.time < b.time : a.seq < b.seq;
            });
  ASSERT_EQ(fired.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i)
    EXPECT_EQ(fired[i], expected[i].tag) << "at dispatch position " << i;
}

TEST(SchedulerStress, CancellationDuringRunMatchesModel) {
  // Events cancel other pending events from inside callbacks.
  sim::Scheduler sched;
  std::vector<int> fired;
  sim::EventHandle victim_near{};
  sim::EventHandle victim_far{};
  victim_near = sched.schedule_at(50, [&] { fired.push_back(-1); });
  victim_far = sched.schedule_at(3000, [&] { fired.push_back(-2); });
  sched.schedule_at(10, [&] {
    fired.push_back(1);
    EXPECT_TRUE(sched.cancel(victim_near));
    EXPECT_TRUE(sched.cancel(victim_far));
  });
  sched.schedule_at(60, [&] { fired.push_back(2); });
  sched.schedule_at(3100, [&] { fired.push_back(3); });
  sched.run();
  EXPECT_EQ(fired, (std::vector<int>{1, 2, 3}));
}

// ------------------------------------------------ handle-generation map --

TEST(SchedulerHandles, StaleHandleAfterSlotReuseFails) {
  sim::Scheduler sched;
  // Fire one event so its slot returns to the free list.
  const sim::EventHandle first = sched.schedule_at(1, [] {});
  sched.run();
  EXPECT_FALSE(sched.cancel(first));
  // The next event reuses the slot with a bumped generation: the stale
  // handle must still fail and the fresh one succeed.
  const sim::EventHandle second = sched.schedule_at(10, [] {});
  EXPECT_NE(first.id, second.id);
  EXPECT_FALSE(sched.cancel(first));
  EXPECT_TRUE(sched.cancel(second));
  EXPECT_FALSE(sched.cancel(second));
}

TEST(SchedulerHandles, CancelledSlotReuseKeepsHandlesDistinct) {
  sim::Scheduler sched;
  std::vector<sim::EventHandle> handles;
  // Many schedule/cancel cycles force slot reuse; every stale handle must
  // stay dead.
  for (int round = 0; round < 100; ++round) {
    const sim::EventHandle h = sched.schedule_at(5, [] {});
    EXPECT_TRUE(sched.cancel(h));
    handles.push_back(h);
  }
  for (const auto& h : handles) EXPECT_FALSE(sched.cancel(h));
  EXPECT_EQ(sched.pending(), 0u);
}

// -------------------------------------------------- FIFO across the engine --

TEST(SchedulerFifo, TieBreakHoldsAcrossWheelAndOverflow) {
  // Events for one far-future instant scheduled early sit in the overflow
  // heap; as the wheel advances they migrate into a bucket where later
  // (higher-seq) events for the same instant are appended directly. FIFO
  // must hold across that boundary.
  sim::Scheduler sched;
  std::vector<int> order;
  const sim::SimTime target = 2000;  // beyond the wheel horizon at t=0
  for (int i = 0; i < 5; ++i)
    sched.schedule_at(target, [&order, i] { order.push_back(i); });
  // An intermediate event advances the wheel past target - horizon, then
  // appends more events for the same instant.
  sched.schedule_at(1500, [&] {
    for (int i = 5; i < 10; ++i)
      sched.schedule_at(target, [&order, i] { order.push_back(i); });
  });
  sched.run();
  ASSERT_EQ(order.size(), 10u);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(SchedulerFifo, ReserveDoesNotDisturbOrdering) {
  sim::Scheduler sched;
  sched.reserve(4096);
  std::vector<int> order;
  for (int i = 0; i < 1000; ++i)
    sched.schedule_at(i % 3, [&order, i] { order.push_back(i); });
  sched.run();
  ASSERT_EQ(order.size(), 1000u);
  // Within each time bucket, insertion order must be preserved.
  std::vector<int> expected;
  for (int t = 0; t < 3; ++t)
    for (int i = 0; i < 1000; ++i)
      if (i % 3 == t) expected.push_back(i);
  EXPECT_EQ(order, expected);
}

// ------------------------------------------------------- golden output --

/// The exact sweep the PR-1 engine ran to capture the golden below:
/// paper base config, {grid:5x5, grid:6x6, dlm:5:5x5} x {cwn, gm, random}
/// x fib:9 x seeds {1, 2} through the batch engine.
exp::BatchOutcome run_golden_sweep(std::ostream& os) {
  exp::BatchOptions opt;
  opt.collect = false;
  opt.jsonl_stream = &os;
  return core::SweepBuilder(core::paper::base_config())
      .topologies({"grid:5x5", "grid:6x6", "dlm:5:5x5"})
      .strategies({"cwn", "gm", "random"})
      .workloads({"fib:9"})
      .seeds({1, 2})
      .run_batch(opt);
}

TEST(GoldenBatchOutput, ByteIdenticalToPreRefactorEngine) {
  // Captured from the std::function + binary-heap engine (commit adddc24,
  // before the inline-callback rewrite): 18 JSONL records, 10453 bytes,
  // FNV-1a 0xa5230cf18d7c7a9d. The rewritten engine must reproduce them
  // byte for byte — same event order, same statistics, same rendering.
  std::ostringstream os;
  const auto outcome = run_golden_sweep(os);
  EXPECT_TRUE(outcome.report.ok());
  const std::string bytes = os.str();
  EXPECT_EQ(bytes.size(), 10453u);
  EXPECT_EQ(fnv1a64(bytes), 0xa5230cf18d7c7a9dULL);
  EXPECT_EQ(outcome.report.total_events, [&] {
    // The record stream carries per-run events_executed; cross-check the
    // report aggregate against it.
    std::uint64_t sum = 0;
    std::istringstream in(bytes);
    std::string line;
    while (std::getline(in, line)) {
      const auto rec = exp::parse_jsonl_record(line);
      EXPECT_TRUE(rec.has_value());
      if (rec) sum += rec->result.events_executed;
    }
    return sum;
  }());
}

/// A serial sweep whose channels really queue: every word costs 2 ticks,
/// so a goal hop holds its link for ~20 ticks while load broadcasts and
/// steal probes pile up behind it. {dlm:5:5x5, grid:6x6} x {acwn, gm,
/// steal:backoff=10} x fib:11 x seeds {1, 2}.
core::SweepBuilder deep_queue_sweep() {
  core::ExperimentConfig base = core::paper::base_config();
  base.machine.word_time = 2;
  core::SweepBuilder sweep(base);
  sweep.topologies({"dlm:5:5x5", "grid:6x6"})
      .strategies({"acwn", "gm", "steal:backoff=10"})
      .workloads({"fib:11"})
      .seeds({1, 2});
  return sweep;
}

exp::BatchOutcome run_deep_queue_sweep(std::ostream& os) {
  exp::BatchOptions opt;
  opt.collect = false;
  opt.jsonl_stream = &os;
  return deep_queue_sweep().run_batch(opt);
}

TEST(GoldenBatchOutput, DeepQueueTrajectoriesPinned) {
  // Captured from the sim::Resource channel model (one RingQueue of
  // type-erased requests per link): 12 JSONL records. The compact link
  // channels must reproduce them byte for byte — same FIFO order, same
  // completion events, same channel utilizations.
  std::ostringstream os;
  const auto outcome = run_deep_queue_sweep(os);
  EXPECT_TRUE(outcome.report.ok());
  const std::string bytes = os.str();
  EXPECT_EQ(std::count(bytes.begin(), bytes.end(), '\n'), 12);
  EXPECT_EQ(bytes.size(), 7146u);
  EXPECT_EQ(fnv1a64(bytes), 0x80042b3990ac3310ULL);
}

TEST(GoldenBatchOutput, DeepQueueSweepParksWaitersOnEveryRun) {
  // What makes the golden above deep: every run of it queues transmissions
  // behind busy links, and recycles waiter slots (fewer slots than waits).
  for (const core::ExperimentConfig& cfg : deep_queue_sweep().build()) {
    const topo::SharedTopology topology =
        topo::make_topology_shared(cfg.topology);
    const auto workload = workload::make_workload(cfg.workload, cfg.costs);
    const auto strategy = lb::make_strategy(cfg.strategy);
    machine::Machine m(topology, *workload, *strategy, cfg.machine);
    m.run();
    const machine::Machine::EngineStats stats = m.engine_stats();
    EXPECT_GT(stats.peak_waiters, 0u) << cfg.label();
    EXPECT_LT(stats.peak_waiters, stats.channel_waits) << cfg.label();
  }
}

}  // namespace
}  // namespace oracle
