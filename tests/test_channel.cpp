// Unit tests for the link channels (machine/channel.hpp): capacity-1 FIFO
// service per link, per-link busy time and utilization, and the recycled
// waiter pool of one scheduler domain.

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <vector>

#include "machine/channel.hpp"
#include "sim/scheduler.hpp"

namespace oracle::machine {
namespace {

/// One scheduler domain over `links` channel records, logging every
/// delivered hop as (slot, time).
struct Links {
  explicit Links(std::size_t links = 1) : records(links) {}

  void send(sim::Duration service, std::uint32_t tag, topo::LinkId lid = 0) {
    channels.occupy(lid, service, Hop{tag, lid, HopKind::Unicast});
  }

  void deliver_hop(const Hop& hop) {
    delivered.push_back(hop.slot);
    times.push_back(sched.now());
    if (on_deliver) on_deliver(hop);
  }

  sim::Scheduler sched;
  std::vector<Channel> records;
  LinkChannels<Links> channels{sched, records.data(), *this};
  std::vector<std::uint32_t> delivered;
  std::vector<sim::SimTime> times;
  std::function<void(const Hop&)> on_deliver;
};

TEST(LinkChannels, ServesImmediatelyWhenFree) {
  Links l;
  l.send(5, 0);
  l.sched.run();
  EXPECT_EQ(l.times, (std::vector<sim::SimTime>{5}));
  EXPECT_EQ(l.channels.waits(), 0u);
}

TEST(LinkChannels, QueuesFifoUnderContention) {
  Links l;
  for (std::uint32_t i = 0; i < 3; ++i) l.send(10, i);
  l.sched.run();
  EXPECT_EQ(l.delivered, (std::vector<std::uint32_t>{0, 1, 2}));
  EXPECT_EQ(l.times, (std::vector<sim::SimTime>{10, 20, 30}));
}

TEST(LinkChannels, InterleavedArrivals) {
  Links l;
  l.sched.schedule_at(0, [&] { l.send(10, 0); });
  l.sched.schedule_at(5, [&] { l.send(10, 1); });
  l.sched.schedule_at(25, [&] { l.send(10, 2); });
  l.sched.run();
  // Second waits for first (10 -> 20); third arrives idle (25 -> 35).
  EXPECT_EQ(l.times, (std::vector<sim::SimTime>{10, 20, 35}));
  EXPECT_EQ(l.channels.waits(), 1u);
}

TEST(LinkChannels, ZeroServiceTimeCompletesAtOnce) {
  Links l;
  l.send(0, 0);
  l.sched.run();
  EXPECT_EQ(l.times, (std::vector<sim::SimTime>{0}));
}

TEST(LinkChannels, BusyTimeAccumulates) {
  Links l;
  l.send(3, 0);
  l.send(4, 1);
  l.sched.run();
  EXPECT_EQ(l.records[0].busy, 7);
  EXPECT_EQ(l.delivered.size(), 2u);
}

TEST(LinkChannels, UtilizationOverHorizon) {
  Links l;
  l.send(5, 0);
  l.sched.run();
  EXPECT_DOUBLE_EQ(l.records[0].utilization(10), 0.5);
  EXPECT_DOUBLE_EQ(l.records[0].utilization(0), 0.0);
}

TEST(LinkChannels, QueueLengthVisible) {
  Links l;
  for (std::uint32_t i = 0; i < 5; ++i) l.send(10, i);
  EXPECT_TRUE(l.records[0].in_service);
  EXPECT_EQ(l.channels.queue_length(0), 4u);
  EXPECT_EQ(l.channels.waits(), 4u);
  l.sched.run();
  EXPECT_FALSE(l.records[0].in_service);
  EXPECT_EQ(l.channels.queue_length(0), 0u);
}

TEST(LinkChannels, LinksQueueIndependentlyInOnePool) {
  // Waiters of two links interleave in one pool; each link still serves
  // its own FIFO on its own clock.
  Links l(2);
  for (std::uint32_t i = 0; i < 3; ++i) {
    l.send(10, i, 0);
    l.send(7, 10 + i, 1);
  }
  l.sched.run();
  EXPECT_EQ(l.delivered,
            (std::vector<std::uint32_t>{10, 0, 11, 1, 12, 2}));
  EXPECT_EQ(l.times, (std::vector<sim::SimTime>{7, 10, 14, 20, 21, 30}));
  EXPECT_EQ(l.records[0].busy, 30);
  EXPECT_EQ(l.records[1].busy, 21);
}

TEST(LinkChannels, StartsNextWaiterBeforeDelivering) {
  // The finishing transaction schedules its successor's completion before
  // the sink runs, so the successor wins a tie with anything the sink
  // schedules for the same instant.
  Links l;
  constexpr std::uint32_t kMarker = 99;
  l.on_deliver = [&](const Hop& hop) {
    if (hop.slot == 0)
      l.sched.schedule_after(5, [&] {
        l.delivered.push_back(kMarker);
        l.times.push_back(l.sched.now());
      });
  };
  l.send(10, 0);
  l.send(5, 1);
  l.sched.run();
  EXPECT_EQ(l.delivered, (std::vector<std::uint32_t>{0, 1, kMarker}));
  EXPECT_EQ(l.times, (std::vector<sim::SimTime>{10, 15, 15}));
}

TEST(LinkChannels, WaiterSlotsAreRecycled) {
  // Ten bursts of four on link 0, each after the previous one drained:
  // 30 waits, but never more than 3 waiters parked at once.
  Links l(2);
  for (int burst = 0; burst < 10; ++burst)
    l.sched.schedule_at(burst * 100, [&] {
      for (std::uint32_t i = 0; i < 4; ++i) l.send(10, i, 0);
    });
  l.sched.run();
  EXPECT_EQ(l.channels.waits(), 30u);
  EXPECT_EQ(l.channels.peak_waiters(), 3u);

  // Then one burst on both links at once: 3 + 2 parked together.
  l.sched.schedule_at(2000, [&] {
    for (std::uint32_t i = 0; i < 4; ++i) l.send(10, i, 0);
    for (std::uint32_t i = 0; i < 3; ++i) l.send(10, i, 1);
  });
  l.sched.run();
  EXPECT_EQ(l.channels.waits(), 35u);
  EXPECT_EQ(l.channels.peak_waiters(), 5u);
  EXPECT_EQ(l.records[0].busy, 440);
  EXPECT_EQ(l.records[1].busy, 30);
}

}  // namespace
}  // namespace oracle::machine
