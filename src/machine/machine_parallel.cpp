// Conservative parallel engine (sim_threads > 1): shard setup, the
// window/barrier loop, cross-shard message exchange, and the worker pool.
// The serial engine and everything shared with it live in machine.cpp.
//
// Correctness sketch. Shards only interact through messages on links whose
// members span shards, and every such message occupies its (analytic)
// channel for at least L = lookahead.horizon ticks. If every shard has
// executed all events strictly before some time W, then any message a
// shard sends while executing the window departs at or after
// send_time + L >= t_min + L, where t_min is the minimum next-event time
// across shards at the window start. Choosing W = t_min + L therefore
// guarantees no event executed inside the window can produce a
// cross-shard delivery inside the same window: deliveries land in the
// receivers' holdback queues at the barrier, and each receiver's worker
// injects the due ones before it runs the next window. The trajectory is
// a pure function of (config, K): workers only decide *which thread* runs
// a shard, never the order of events within it, so any thread count
// yields identical results.

#include <algorithm>
#include <iterator>

#include "machine/machine.hpp"
#include "util/error.hpp"
#include "util/string_util.hpp"

namespace oracle::machine {

namespace {
bool holdback_before(const CrossMsg& a, const CrossMsg& b) {
  if (a.deliver != b.deliver) return a.deliver < b.deliver;
  if (a.src_shard != b.src_shard) return a.src_shard < b.src_shard;
  return a.order < b.order;
}
}  // namespace

void Machine::setup_parallel() {
  ORACLE_REQUIRE(config_.sample_interval == 0,
                 "the parallel engine does not support utilization sampling "
                 "(sample_interval > 0); run with --sim-threads 1");
  ORACLE_REQUIRE(config_.trace_capacity == 0,
                 "the parallel engine does not support machine traces "
                 "(trace_capacity > 0); run with --sim-threads 1");

  par_ = std::make_unique<ParallelState>();
  par_->plan = make_partition_plan(topo_.num_nodes(), config_.sim_partitions);
  par_->lookahead = compute_lookahead(topo_, par_->plan, config_);
  par_->num_workers = std::min(config_.sim_threads, par_->plan.num_shards);

  const std::uint32_t K = par_->plan.num_shards;

  // Members are sorted and shards are id-contiguous, so a link spans
  // shards iff its first and last members do.
  par_->cross_index.assign(topo_.num_links(), ParallelState::kInternalLink);
  for (topo::LinkId lid = 0; lid < topo_.num_links(); ++lid) {
    const auto members = topo_.link_members(lid);
    if (shard_of(members.front()) != shard_of(members.back()))
      par_->cross_index[lid] = par_->num_cross++;
  }

  const std::uint32_t ring = sim_.scheduler().ring_ticks();
  const bool huge = topo_.num_nodes() > kHugeMachinePEs;
  par_->shards.reserve(K);
  for (std::uint32_t s = 0; s < K; ++s) {
    auto shard = std::make_unique<ShardState>(ring, links_.data(), *this);
    const std::size_t size = par_->plan.end(s) - par_->plan.begin(s);
    shard->sim.scheduler().reserve(huge ? 2 * size + 64 : 8 * size + 64);
    shard->pool.reserve(huge ? 16384 : 1024);
    // One deterministic stream per shard: shard execution is sequential,
    // so draws depend only on the shard's event order — a function of K.
    shard->rng = Rng(config_.seed).split(0x9E3700u + s);
    shard->outbox.resize(K);
    shard->cross_channels.resize(par_->num_cross);
    par_->shards.push_back(std::move(shard));
  }
}

void Machine::transmit_over_cross_link(topo::NodeId from, topo::NodeId to,
                                       std::uint32_t cross,
                                       std::uint32_t slot) {
  ShardState& src = *par_->shards[shard_of(from)];
  Message payload = src.pool.take(slot);
  const sim::Duration service = occupancy_of(payload);
  // Analytic capacity-1 FIFO per (sender shard, link): the k-th message
  // departs at max(arrival, previous departure) + service, which is when
  // a serial Channel would complete it.
  const sim::SimTime depart =
      src.cross_channels[cross].occupy(src.sim.now(), service);
  const std::uint32_t dst_shard = shard_of(to);
  if (dst_shard == shard_of(from)) {
    // A link can span shards while this particular (from, to) pair stays
    // inside one (e.g. two members of a bus that also reaches another
    // shard): deliver locally at the analytic departure time.
    const std::uint32_t new_slot = src.pool.put(std::move(payload));
    src.sim.scheduler().schedule_at(
        depart, [this, new_slot, to] { deliver_pooled(new_slot, to); });
    return;
  }
  ++src.cross_sent;
  src.outbox[dst_shard].push_back(CrossMsg{depart, to, shard_of(from),
                                           src.send_order++,
                                           std::move(payload)});
}

void Machine::broadcast_over_cross_link(topo::NodeId from, topo::LinkId lid,
                                        std::uint32_t cross,
                                        std::uint32_t slot) {
  ShardState& src = *par_->shards[shard_of(from)];
  const std::uint32_t src_shard = shard_of(from);
  const Message& msg = src.pool.at(slot);
  const sim::Duration service = occupancy_of(msg);
  const sim::SimTime depart =
      src.cross_channels[cross].occupy(src.sim.now(), service);
  // One bus transaction, every member hears it: local members get a
  // delivery event holding a reference to the broadcast's pooled payload,
  // remote members a CrossMsg copy each.
  for (const topo::NodeId member : topo_.link_members(lid)) {
    if (member == from) continue;
    if (shard_of(member) == src_shard) {
      src.pool.retain(slot);
      src.sim.scheduler().schedule_at(
          depart, [this, slot, member] { deliver_pooled(slot, member); });
    } else {
      ++src.cross_sent;
      src.outbox[shard_of(member)].push_back(
          CrossMsg{depart, member, src_shard, src.send_order++, msg});
    }
  }
}

double Machine::cross_channel_utilization(std::uint32_t cross,
                                          sim::SimTime horizon) const {
  if (horizon <= 0) return 0.0;
  sim::Duration busy = 0;
  for (const auto& shard : par_->shards)
    busy += shard->cross_channels[cross].busy_sum;
  return static_cast<double>(busy) / static_cast<double>(horizon);
}

void Machine::inject_holdback(ShardState& shard, sim::SimTime window_end) {
  // Restore the deterministic (deliver, src_shard, order) sequence, then
  // schedule every message due inside the window. The window invariant
  // (deliver >= the send window's end) guarantees none is late: holdback
  // fronts are never below the receiver's clock.
  std::sort(shard.holdback.begin(), shard.holdback.end(), holdback_before);
  std::size_t taken = 0;
  while (taken < shard.holdback.size() &&
         shard.holdback[taken].deliver < window_end) {
    CrossMsg& cm = shard.holdback[taken++];
    const std::uint32_t slot = shard.pool.put(std::move(cm.payload));
    const topo::NodeId to = cm.to;
    shard.sim.scheduler().schedule_at(
        cm.deliver, [this, slot, to] { deliver_pooled(slot, to); });
  }
  shard.holdback.erase(shard.holdback.begin(),
                       shard.holdback.begin() +
                           static_cast<std::ptrdiff_t>(taken));
  shard.holdback_min = shard.holdback.empty() ? sim::kTimeInfinity
                                              : shard.holdback.front().deliver;
}

void Machine::worker_loop(std::uint32_t worker) {
  ParallelState& P = *par_;
  std::uint64_t seen_epoch = 0;
  while (true) {
    sim::SimTime until;
    {
      std::unique_lock<std::mutex> lock(P.mutex);
      P.work_cv.wait(lock,
                     [&] { return P.shutdown || P.epoch != seen_epoch; });
      if (P.shutdown) return;
      seen_epoch = P.epoch;
      until = P.window_until;
    }
    try {
      // Static shard ownership (worker w runs shards w, w+N, ...): a shard
      // is touched by exactly one thread per window, so shard state needs
      // no locks — the barrier's mutex orders the inter-window handoff.
      for (std::uint32_t s = worker; s < P.plan.num_shards;
           s += P.num_workers) {
        ShardState& shard = *P.shards[s];
        if (shard.stopped) continue;  // run over there; drop traffic
        inject_holdback(shard, until);
        const std::uint64_t before = shard.sim.scheduler().executed();
        // run() treats `until` inclusively; the window is [_, until), so
        // stop at until - 1. An infinite window (K == 1, or no link
        // crosses shards) runs to drain or request_stop.
        const sim::SimTime bound =
            until == sim::kTimeInfinity ? sim::kTimeInfinity : until - 1;
        shard.sim.scheduler().run(bound, config_.max_events);
        if (shard.sim.scheduler().executed() == before)
          ++shard.window_stalls;
      }
    } catch (...) {
      std::lock_guard<std::mutex> lock(P.mutex);
      P.errors.push_back(std::current_exception());
    }
    bool last;
    {
      std::lock_guard<std::mutex> lock(P.mutex);
      last = --P.pending == 0;
    }
    if (last) P.done_cv.notify_one();
  }
}

void Machine::run_parallel() {
  ParallelState& P = *par_;
  const std::uint32_t K = P.plan.num_shards;

  // Root injection, same contract as serial: created on start_pe so the
  // strategy makes its normal placement decision.
  P.shards[shard_of(config_.start_pe)]->sim.scheduler().schedule_at(0, [this] {
    Message root =
        Message::goal(next_goal_id(config_.start_pe), workload_.root(),
                      workload::kInvalidGoal, topo::kInvalidNode);
    place_new_goal(config_.start_pe, std::move(root));
  });

  P.workers.reserve(P.num_workers);
  for (std::uint32_t w = 0; w < P.num_workers; ++w)
    P.workers.emplace_back([this, w] { worker_loop(w); });

  const auto shutdown_and_join = [&P] {
    {
      std::lock_guard<std::mutex> lock(P.mutex);
      P.shutdown = true;
    }
    P.work_cv.notify_all();
    for (std::thread& t : P.workers) t.join();
    P.workers.clear();
  };

  try {
    while (true) {
      // ---- Barrier section: workers idle, main thread owns all state ----
      // Move this window's cross traffic into the receivers' holdbacks,
      // tracking only the earliest delivery; the receivers' workers sort
      // and inject (inject_holdback).
      for (const auto& shard : P.shards)
        for (std::uint32_t dst = 0; dst < K; ++dst) {
          auto& box = shard->outbox[dst];
          if (box.empty()) continue;
          ShardState& receiver = *P.shards[dst];
          for (const CrossMsg& cm : box)
            receiver.holdback_min = std::min(receiver.holdback_min, cm.deliver);
          receiver.holdback.insert(receiver.holdback.end(),
                                   std::make_move_iterator(box.begin()),
                                   std::make_move_iterator(box.end()));
          box.clear();
        }

      if (P.completed.load(std::memory_order_acquire)) break;

      if (config_.max_events > 0) {
        std::uint64_t total = 0;
        for (const auto& shard : P.shards)
          total += shard->sim.scheduler().executed();
        if (total > config_.max_events)
          throw SimulationError(strfmt(
              "event budget exceeded (%llu events executed across %u "
              "shards); the model is probably not terminating",
              static_cast<unsigned long long>(total), K));
      }

      // Next safe window: [t_min, t_min + horizon). Holdback fronts count
      // as pending events — a shard whose only work is an incoming cross
      // message must not be skipped.
      sim::SimTime t_min = sim::kTimeInfinity;
      for (const auto& shard : P.shards) {
        if (shard->stopped) continue;
        sim::SimTime t;
        if (shard->sim.scheduler().next_event_time(t))
          t_min = std::min(t_min, t);
        t_min = std::min(t_min, shard->holdback_min);
      }
      ORACLE_ASSERT_MSG(t_min != sim::kTimeInfinity,
                        "parallel simulation drained every shard before the "
                        "root goal completed (model deadlock)");

      const sim::SimTime window_end =
          P.lookahead.horizon == sim::kTimeInfinity
              ? sim::kTimeInfinity
              : t_min + P.lookahead.horizon;

      ++P.windows;

      {
        std::lock_guard<std::mutex> lock(P.mutex);
        P.window_until = window_end;
        P.pending = P.num_workers;
        ++P.epoch;
      }
      P.work_cv.notify_all();
      {
        std::unique_lock<std::mutex> lock(P.mutex);
        P.done_cv.wait(lock, [&] { return P.pending == 0; });
        if (!P.errors.empty()) std::rethrow_exception(P.errors.front());
      }
    }
  } catch (...) {
    shutdown_and_join();
    throw;
  }
  shutdown_and_join();

  // The run is over; fold shard-local results into the serial-side fields
  // the aggregation in run() reads. Workers are joined, so everything the
  // shards wrote is visible here.
  root_done_ = true;
  for (const auto& shard : P.shards) {
    if (shard->stopped)
      completion_time_ = std::max(completion_time_, shard->completion_time);
    goal_hops_.merge(shard->goal_hops);
    metrics_.add(goal_tx_, shard->goal_tx);
    metrics_.add(response_tx_, shard->response_tx);
    metrics_.add(control_tx_, shard->control_tx);
  }
}

}  // namespace oracle::machine
