#pragma once
// Link channels. ORACLE "models contention for the basic resources of a
// parallel system": every topology link is a capacity-1 FIFO server that a
// message occupies for its transmission time (a bus is one such link).
// A finishing transaction first starts the next waiter, scheduling its
// completion, and only then hands its own hop to the sink.

#include <cstdint>
#include <vector>

#include "sim/scheduler.hpp"
#include "sim/time.hpp"
#include "topo/topology.hpp"
#include "util/error.hpp"

namespace oracle::machine {

enum class HopKind : std::uint8_t {
  Unicast,    // `target` is the receiving PE
  Broadcast,  // `target` is the link: every member but the sender hears it
};

/// What a link transaction carries: the pooled payload and its receiver(s).
struct Hop {
  std::uint32_t slot = 0;    // machine::MessagePool slot of the payload
  std::uint32_t target = 0;  // receiving PE or link id, per `kind`
  HopKind kind = HopKind::Unicast;
};

inline constexpr std::uint32_t kNoWaiter = UINT32_MAX;

/// One link's capacity-1 FIFO state; its waiters live in a domain pool.
struct Channel {
  sim::Duration busy = 0;          // completed service time
  std::uint32_t head = kNoWaiter;  // first parked waiter
  std::uint32_t tail = kNoWaiter;  // last parked waiter
  bool in_service = false;

  /// Utilization over [0, horizon]: completed service / horizon.
  double utilization(sim::SimTime horizon) const noexcept {
    if (horizon <= 0) return 0.0;
    return static_cast<double>(busy) / static_cast<double>(horizon);
  }
};
static_assert(sizeof(Channel) == 24, "one link record is 24 bytes");

/// The channel protocol of one scheduler domain (a serial run, or one shard
/// of a parallel run) over a shared Channel array; each link belongs to
/// exactly one domain. A transmission that finds its link busy parks a
/// plain-data Waiter in the domain's recycled pool, threaded by index into
/// the link's FIFO. Every finished hop goes to `sink.deliver_hop(hop)`.
template <class Sink>
class LinkChannels {
 public:
  LinkChannels(sim::Scheduler& sched, Channel* channels, Sink& sink) noexcept
      : sched_(&sched), channels_(channels), sink_(&sink) {}
  // Completion events hold `this`.
  LinkChannels(const LinkChannels&) = delete;
  LinkChannels& operator=(const LinkChannels&) = delete;

  /// Hold link `lid` for `service` ticks, then deliver `hop`: at once on an
  /// idle link, else after every earlier transaction on it.
  void occupy(topo::LinkId lid, sim::Duration service, Hop hop) {
    ORACLE_ASSERT_MSG(service >= 0, "negative service time");
    Channel& ch = channels_[lid];
    if (!ch.in_service) {
      ch.in_service = true;
      start(lid, service, hop);
      return;
    }
    const Waiter waiter{service, hop, kNoWaiter};
    std::uint32_t w = free_;
    if (w == kNoWaiter) {
      w = static_cast<std::uint32_t>(waiters_.size());
      waiters_.push_back(waiter);
    } else {
      free_ = waiters_[w].next;
      waiters_[w] = waiter;
    }
    (ch.tail == kNoWaiter ? ch.head : waiters_[ch.tail].next) = w;
    ch.tail = w;
    ++waits_;
  }

  /// Transactions parked behind link `lid` (walks its FIFO).
  std::size_t queue_length(topo::LinkId lid) const {
    std::size_t n = 0;
    for (std::uint32_t w = channels_[lid].head; w != kNoWaiter;
         w = waiters_[w].next)
      ++n;
    return n;
  }

  /// Transactions that found their link busy and waited.
  std::uint64_t waits() const noexcept { return waits_; }

  /// The pool's high-water mark: the most waiters ever parked at once.
  std::size_t peak_waiters() const noexcept { return waiters_.size(); }

 private:
  struct Waiter {
    sim::Duration service = 0;
    Hop hop;
    std::uint32_t next = kNoWaiter;  // next in the link's FIFO or free list
  };

  void start(topo::LinkId lid, sim::Duration service, Hop hop) {
    sched_->schedule_after(service, [this, service, lid, hop] {
      finish(lid, service, hop);
    });
  }

  void finish(topo::LinkId lid, sim::Duration service, Hop hop) {
    Channel& ch = channels_[lid];
    ch.busy += service;
    const std::uint32_t w = ch.head;
    if (w == kNoWaiter) {
      ch.in_service = false;
    } else {
      const Waiter next = waiters_[w];
      ch.head = next.next;
      if (ch.head == kNoWaiter) ch.tail = kNoWaiter;
      waiters_[w].next = free_;
      free_ = w;
      start(lid, next.service, next.hop);
    }
    sink_->deliver_hop(hop);
  }

  sim::Scheduler* sched_;
  Channel* channels_;
  Sink* sink_;
  std::vector<Waiter> waiters_;     // slots are recycled, never freed
  std::uint32_t free_ = kNoWaiter;  // head of the free-slot list
  std::uint64_t waits_ = 0;
};

}  // namespace oracle::machine
