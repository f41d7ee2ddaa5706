// Unit tests for the SIMSCRIPT-style FIFO resource (channel model).

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "sim/resource.hpp"
#include "sim/scheduler.hpp"

namespace oracle::sim {
namespace {

TEST(Resource, ServesImmediatelyWhenFree) {
  Scheduler s;
  Resource r(s);
  SimTime done = -1;
  r.acquire_for(5, [&] { done = s.now(); });
  s.run();
  EXPECT_EQ(done, 5);
}

TEST(Resource, QueuesFifoUnderContention) {
  Scheduler s;
  Resource r(s);
  // Completion callbacks are inline-capped (Resource::Callback); capture
  // one context pointer instead of three references.
  struct Ctx {
    Scheduler& s;
    std::vector<int> order;
    std::vector<SimTime> times;
  } ctx{s, {}, {}};
  for (int i = 0; i < 3; ++i) {
    r.acquire_for(10, [&ctx, i] {
      ctx.order.push_back(i);
      ctx.times.push_back(ctx.s.now());
    });
  }
  s.run();
  EXPECT_EQ(ctx.order, (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(ctx.times, (std::vector<SimTime>{10, 20, 30}));
}

TEST(Resource, MultiServerParallelism) {
  Scheduler s;
  Resource r(s, 2);
  std::vector<SimTime> times;
  for (int i = 0; i < 4; ++i)
    r.acquire_for(10, [&] { times.push_back(s.now()); });
  s.run();
  // Two at a time: finish at 10, 10, 20, 20.
  EXPECT_EQ(times, (std::vector<SimTime>{10, 10, 20, 20}));
}

TEST(Resource, BusyTimeAccumulates) {
  Scheduler s;
  Resource r(s);
  r.acquire_for(3, nullptr);
  r.acquire_for(4, nullptr);
  s.run();
  EXPECT_EQ(r.busy_time(), 7);
  EXPECT_EQ(r.completed(), 2u);
}

TEST(Resource, UtilizationOverHorizon) {
  Scheduler s;
  Resource r(s);
  r.acquire_for(5, nullptr);
  s.run();
  EXPECT_DOUBLE_EQ(r.utilization(10), 0.5);
  EXPECT_DOUBLE_EQ(r.utilization(0), 0.0);
}

TEST(Resource, ZeroServiceTimeCompletesAtOnce) {
  Scheduler s;
  Resource r(s);
  SimTime done = -1;
  r.acquire_for(0, [&] { done = s.now(); });
  s.run();
  EXPECT_EQ(done, 0);
}

TEST(Resource, QueueDelayStatistics) {
  Scheduler s;
  Resource r(s);
  for (int i = 0; i < 3; ++i) r.acquire_for(10, nullptr);
  s.run();
  // Delays: 0, 10, 20.
  EXPECT_EQ(r.queue_delay().count(), 3u);
  EXPECT_DOUBLE_EQ(r.queue_delay().mean(), 10.0);
  EXPECT_DOUBLE_EQ(r.queue_delay().max(), 20.0);
}

TEST(Resource, InterleavedArrivals) {
  Scheduler s;
  Resource r(s);
  std::vector<SimTime> done;
  s.schedule_at(0, [&] { r.acquire_for(10, [&] { done.push_back(s.now()); }); });
  s.schedule_at(5, [&] { r.acquire_for(10, [&] { done.push_back(s.now()); }); });
  s.schedule_at(25, [&] { r.acquire_for(10, [&] { done.push_back(s.now()); }); });
  s.run();
  // Second waits for first (10 -> 20); third arrives idle (25 -> 35).
  EXPECT_EQ(done, (std::vector<SimTime>{10, 20, 35}));
}

TEST(Resource, QueueLengthVisible) {
  Scheduler s;
  Resource r(s);
  for (int i = 0; i < 5; ++i) r.acquire_for(10, nullptr);
  EXPECT_EQ(r.in_service(), 1u);
  EXPECT_EQ(r.queue_length(), 4u);
  s.run();
  EXPECT_EQ(r.in_service(), 0u);
  EXPECT_EQ(r.queue_length(), 0u);
}

TEST(Resource, MovesOnlyWhileIdle) {
  Scheduler s;
  Resource idle(s);
  Resource moved(std::move(idle));
  SimTime done_at = -1;
  moved.acquire_for(10, [&] { done_at = s.now(); });
  s.run();
  EXPECT_EQ(done_at, 10);
  EXPECT_EQ(moved.completed(), 1u);

  // An in-service event holds the resource's address: moving it then
  // would leave that event pointing at the moved-from object.
  Resource busy(s);
  busy.acquire_for(10, nullptr);
  EXPECT_DEATH({ Resource stolen(std::move(busy)); }, "moved while idle");
}

}  // namespace
}  // namespace oracle::sim
