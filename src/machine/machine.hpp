#pragma once
// The simulated multiprocessor: topology + channels + PEs + strategy +
// workload, wired into one discrete-event simulation. One Machine = one
// ORACLE run.
//
// Two execution engines share this model:
//   - Serial (sim_threads == 1, the default): one scheduler dispatches
//     every event in (time, seq) order. This is the golden reference —
//     its dispatch order is pinned byte-identical by the regression suite.
//   - Conservative parallel (sim_threads > 1): PEs are partitioned into K
//     contiguous shards (machine/partition.hpp), each with its own
//     scheduler, channel domain, message pool, and RNG stream. Shards
//     advance in lock-stepped windows bounded by the topology lookahead
//     (min cross-shard link latency); cross-shard messages are exchanged
//     at the window barriers. The trajectory is a deterministic function
//     of (config, K) and *independent of the thread count*: shards run
//     identically whether 1 or 16 workers execute them, so RunResult
//     metrics are reproducible across hosts. Parallel runs are a distinct
//     trajectory from serial (control timing differs), documented in
//     README "Million-PE runs".

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "lb/strategy.hpp"
#include "machine/channel.hpp"
#include "machine/machine_config.hpp"
#include "machine/message.hpp"
#include "machine/partition.hpp"
#include "machine/pe.hpp"
#include "machine/trace.hpp"
#include "sim/simulation.hpp"
#include "stats/run_result.hpp"
#include "topo/factory.hpp"
#include "topo/graph_algos.hpp"
#include "topo/topology.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "workload/workload.hpp"

namespace oracle::machine {

/// Above this many PEs the per-object reserves (scheduler, message pool,
/// per-PE queues) flip from "free insurance" to a memory bill measured in
/// gigabytes; the machine switches to lean sizing and lets the few hot
/// structures grow on demand.
inline constexpr std::uint32_t kHugeMachinePEs = 65536;

/// Recycling slot pool for in-flight Messages. A network hop parks its
/// payload here and the channel-completion event captures only the 4-byte
/// slot index, so a hop's scheduler callback fits inline (sizeof(Message)
/// would blow the 48-byte budget) and steady-state routing allocates
/// nothing: slots are reused as soon as their message is delivered.
///
/// Storage is chunked so message addresses never move: delivery code holds
/// `at()` references across strategy hooks, and a hook may transmit (i.e.
/// put() into this pool) — growth must not invalidate outstanding
/// references.
///
/// A slot is reference-counted so one payload can serve several
/// deliveries: a load broadcast parks its message once and every link
/// transaction of the broadcast holds a reference. The last release()
/// frees the slot.
class MessagePool {
 public:
  void reserve(std::size_t n) {
    while (chunks_.size() * kChunkSize < n)
      chunks_.push_back(std::make_unique<Message[]>(kChunkSize));
    refs_.reserve(n);
    free_.reserve(n);
  }

  /// Park `msg` in a slot holding one reference.
  std::uint32_t put(Message&& msg) {
    std::uint32_t idx;
    if (free_.empty()) {
      if (count_ == chunks_.size() * kChunkSize)
        chunks_.push_back(std::make_unique<Message[]>(kChunkSize));
      idx = count_++;
      refs_.push_back(0);
    } else {
      idx = free_.back();
      free_.pop_back();
      ++reused_;
    }
    refs_[idx] = 1;
    at(idx) = std::move(msg);
    return idx;
  }

  /// Add a reference to a live slot: one more delivery will release it.
  void retain(std::uint32_t idx) {
    ORACLE_ASSERT(refs_[idx] > 0);
    ++refs_[idx];
  }

  /// Remove and return the message, releasing its only reference.
  Message take(std::uint32_t idx) {
    ORACLE_ASSERT_MSG(refs_[idx] == 1, "take() from a shared slot");
    Message out = std::move(at(idx));
    refs_[idx] = 0;
    free_.push_back(idx);
    return out;
  }

  /// In-place access while the message stays pooled: multi-hop routing
  /// updates transport fields here instead of copying the payload out and
  /// back per hop. The reference stays valid across put() calls.
  Message& at(std::uint32_t idx) {
    return chunks_[idx >> kChunkShift][idx & (kChunkSize - 1)];
  }

  /// Drop one reference without taking the message (terminal delivery that
  /// already consumed what it needed, or dropped in-flight traffic); the
  /// slot is reused once no reference is left.
  void release(std::uint32_t idx) {
    ORACLE_ASSERT(refs_[idx] > 0);
    if (--refs_[idx] == 0) free_.push_back(idx);
  }

  /// Occupied slots; a shared slot counts once.
  std::size_t in_flight() const noexcept { return count_ - free_.size(); }

  /// Slots handed out from the free list rather than freshly constructed —
  /// a direct measure of how well pooling avoids allocation in steady state.
  std::uint64_t reused() const noexcept { return reused_; }

 private:
  static constexpr std::uint32_t kChunkShift = 6;  // 64 messages per chunk
  static constexpr std::uint32_t kChunkSize = 1u << kChunkShift;

  std::vector<std::unique_ptr<Message[]>> chunks_;
  std::uint32_t count_ = 0;  // slots handed out across all chunks
  std::vector<std::uint32_t> refs_;  // per slot; 0 = free
  std::vector<std::uint32_t> free_;
  std::uint64_t reused_ = 0;
};

/// Structure-of-arrays block of the per-PE fields the dispatch loop, the
/// strategies, and the samplers touch on every event. Owned by Machine;
/// PE objects write through on every queue/execution transition, so load
/// queries (load_of), utilization sampling, and end-of-run aggregation
/// walk dense columns instead of chasing one heap object per PE. In
/// parallel runs each shard writes only its own PEs' rows — the index
/// ranges are disjoint, so the columns are shared without synchronization.
struct HotState {
  std::vector<std::int64_t> queue_len;    // ready-queue length
  std::vector<std::int64_t> waiting;      // goals awaiting child responses
  std::vector<std::uint8_t> executing;    // activation in flight?
  std::vector<sim::SimTime> exec_start;   // in-flight activation start
  std::vector<sim::Duration> exec_cost;   // in-flight activation cost
  std::vector<sim::Duration> busy_accum;  // completed busy time
  std::vector<std::uint64_t> goals_executed;

  void resize(std::size_t n) {
    queue_len.assign(n, 0);
    waiting.assign(n, 0);
    executing.assign(n, 0);
    exec_start.assign(n, 0);
    exec_cost.assign(n, 0);
    busy_accum.assign(n, 0);
    goals_executed.assign(n, 0);
  }

  /// Busy time of PE `i` through `t`, counting the clamped prefix of any
  /// in-flight activation. Clamped below as well: in a parallel run other
  /// shards may have advanced past the root completion time, so `t` can
  /// precede an in-flight activation's start.
  sim::Duration busy_through(std::size_t i, sim::SimTime t) const noexcept {
    sim::Duration busy = busy_accum[i];
    if (executing[i]) {
      const sim::Duration elapsed = t - exec_start[i];
      if (elapsed > 0)
        busy += elapsed < exec_cost[i] ? elapsed : exec_cost[i];
    }
    return busy;
  }

  std::int64_t load(std::size_t i, LoadMeasure measure) const noexcept {
    std::int64_t load = queue_len[i];
    if (measure == LoadMeasure::QueuePlusWaiting) load += waiting[i];
    return load;
  }
};

/// A message crossing a shard boundary, exchanged at window barriers.
/// `order` is the sender shard's running send counter: sorting by
/// (deliver, src_shard, order) makes the injection sequence — and thus
/// the receiver's (time, seq) dispatch order — deterministic.
struct CrossMsg {
  sim::SimTime deliver = 0;
  topo::NodeId to = topo::kInvalidNode;
  std::uint32_t src_shard = 0;
  std::uint64_t order = 0;
  Message payload;
};

/// Analytic stand-in for a Channel on a link whose members span shards: a
/// capacity-1 FIFO server's k-th departure is
/// max(arrival_k, prev_departure) + service_k, which this tracks in two
/// words. Each *sender* shard keeps its own occupancy per cross link (a
/// shared Channel record would race); the one modeling deviation —
/// opposite directions of a cross link don't contend — is documented in
/// README.
struct CrossChannel {
  sim::SimTime busy_until = 0;
  sim::Duration busy_sum = 0;

  sim::SimTime occupy(sim::SimTime now, sim::Duration service) noexcept {
    const sim::SimTime start = now > busy_until ? now : busy_until;
    busy_until = start + service;
    busy_sum += service;
    return busy_until;
  }
};

class Machine;

/// Everything one scheduler shard owns. No member is ever touched by two
/// threads: a shard is executed by exactly one worker per window, and the
/// main thread touches it only between windows (the barrier's mutex orders
/// the handoff).
struct ShardState {
  ShardState(std::uint32_t ring_ticks, Channel* links, Machine& machine)
      : sim(ring_ticks), channels(sim.scheduler(), links, machine) {}

  sim::Simulation sim;  // own scheduler
  LinkChannels<Machine> channels;  // own waiter pool, for internal links
  MessagePool pool;     // own in-flight slots (indices are shard-local)
  Rng rng{1};           // per-shard stream; deterministic given K
  bool stopped = false; // root finished here; skip further windows
  sim::SimTime completion_time = 0;

  std::uint64_t goal_counter = 0;  // goal ids: counter * K + shard + 1
  std::uint64_t send_order = 0;    // CrossMsg sequencing
  std::uint64_t goal_tx = 0, response_tx = 0, control_tx = 0;
  std::uint64_t cross_sent = 0;    // messages pushed to outboxes
  std::uint64_t window_stalls = 0; // windows in which this shard ran 0 events
  stats::Histogram goal_hops;

  /// Sender-side occupancy per cross-shard link, indexed by the link's
  /// ParallelState::cross_index entry.
  std::vector<CrossChannel> cross_channels;
  /// Outgoing cross messages of the current window, per destination shard.
  std::vector<std::vector<CrossMsg>> outbox;
  /// Messages addressed here and not yet injected. The barrier appends
  /// each window's arrivals unsorted; the shard's worker sorts them by
  /// (deliver, src_shard, order) and injects the due prefix at the start
  /// of the next window.
  std::vector<CrossMsg> holdback;
  /// Earliest delivery time in `holdback` (kTimeInfinity when empty).
  sim::SimTime holdback_min = sim::kTimeInfinity;
};

/// Shared coordination state of a parallel run: the shards, the lookahead,
/// and the worker-release barrier. Allocated only when sim_threads > 1.
struct ParallelState {
  PartitionPlan plan;
  Lookahead lookahead;
  std::vector<std::unique_ptr<ShardState>> shards;
  std::uint32_t num_workers = 1;

  /// Per topology link: its slot in every shard's cross_channels, or
  /// kInternalLink when all members sit in one shard (that shard's
  /// LinkChannels then serves the link's Channel record).
  static constexpr std::uint32_t kInternalLink = UINT32_MAX;
  std::vector<std::uint32_t> cross_index;
  std::uint32_t num_cross = 0;

  // Window barrier (condition variables, not spinning: correctness must
  // not depend on having a core per worker). Workers wait for `epoch` to
  // advance, run their shards to `window_until`, then decrement `pending`.
  std::mutex mutex;
  std::condition_variable work_cv, done_cv;
  std::uint64_t epoch = 0;
  std::uint32_t pending = 0;
  sim::SimTime window_until = 0;
  bool shutdown = false;
  std::vector<std::exception_ptr> errors;
  std::vector<std::thread> workers;

  // Set by the root shard's worker when the root goal completes; the main
  // thread reads it at barriers.
  std::atomic<bool> completed{false};

  // Barrier-side telemetry (main thread only).
  std::uint64_t windows = 0;
};

class Machine {
 public:
  /// The topology, workload and strategy must outlive the Machine. Exact
  /// routing structures (one BFS sweep per destination) are built
  /// privately up to topo::kExactRoutingMaxNodes; beyond that the
  /// topology must provide analytic_next_hop / diameter_hint.
  Machine(const topo::Topology& topo, const workload::Workload& workload,
          lb::Strategy& strategy, const MachineConfig& config);

  /// Share pre-built routing structures: every Machine in a batch that
  /// names the same topology spec reuses one immutable topology + routing
  /// table (see topo::make_topology_shared) instead of rebuilding them
  /// per seed. The shared_ptrs keep the bundle alive for this Machine.
  Machine(topo::SharedTopology shared, const workload::Workload& workload,
          lb::Strategy& strategy, const MachineConfig& config);

  Machine(const Machine&) = delete;
  Machine& operator=(const Machine&) = delete;
  ~Machine();

  /// Inject the root goal at config.start_pe, run to completion, and
  /// aggregate statistics. Callable exactly once.
  stats::RunResult run();

  // --- Services used by PEs and strategies --------------------------------

  sim::Scheduler& scheduler() noexcept { return sim_.scheduler(); }
  sim::SimTime now() const noexcept { return sim_.now(); }
  Rng& rng() noexcept { return rng_; }
  const MachineConfig& config() const noexcept { return config_; }

  /// The scheduler that owns `pe`'s events: the global one in a serial
  /// run, pe's shard scheduler in a parallel run. Strategies must route
  /// their timers through this (not scheduler()) to stay engine-agnostic.
  sim::Scheduler& scheduler_for(topo::NodeId pe) noexcept {
    return par_ ? par_->shards[shard_of(pe)]->sim.scheduler()
                : sim_.scheduler();
  }

  /// Simulated time at `pe` (its shard's clock). In a parallel run clocks
  /// advance per shard within a window; per-PE decisions (cooldowns,
  /// backoffs) must use this, never the global now().
  sim::SimTime now_of(topo::NodeId pe) const noexcept {
    return par_ ? par_->shards[shard_of(pe)]->sim.now() : sim_.now();
  }

  /// The RNG stream for decisions made at `pe`. Serial runs share one
  /// stream (the golden trajectory); parallel runs use one stream per
  /// shard, so draws depend only on the shard's deterministic event order.
  Rng& rng_for(topo::NodeId pe) noexcept {
    return par_ ? par_->shards[shard_of(pe)]->rng : rng_;
  }

  const topo::Topology& topology() const noexcept { return topo_; }
  std::uint32_t num_pes() const noexcept { return topo_.num_nodes(); }
  std::uint32_t diameter() const noexcept { return diameter_; }

  PE& pe(topo::NodeId id) { return *pes_.at(id); }
  const PE& pe(topo::NodeId id) const { return *pes_.at(id); }

  /// The strategy-visible load of a PE (per config().load_measure), read
  /// straight from the SoA column.
  std::int64_t load_of(topo::NodeId id) const {
    return hot_.load(id, config_.load_measure);
  }

  /// Execution-time multiplier for a PE (1 unless degradation injection is
  /// configured via slow_pe_percent / slow_factor).
  std::uint32_t speed_factor(topo::NodeId id) const {
    return speed_factor_.empty() ? 1u : speed_factor_[id];
  }

  /// Keep a goal on `pe`: enqueue it locally (no communication).
  void keep_goal(topo::NodeId pe, const Message& msg);

  /// Send a goal message one hop to neighbor `to`. The caller (strategy)
  /// must already have accounted the hop in msg.hops.
  void send_goal(topo::NodeId from, topo::NodeId to, Message msg);

  /// Send a control message to neighbor `to` (co-processor path).
  void send_control(topo::NodeId from, topo::NodeId to, std::uint32_t tag,
                    std::int64_t value);

  /// Broadcast a control message to all neighbors. On bus links the bus is
  /// acquired once and all attached PEs hear it (the DLM advantage).
  void broadcast_control(topo::NodeId from, std::uint32_t tag,
                         std::int64_t value);

  /// Expand a goal spec (delegates to the workload).
  workload::Expansion expand(const workload::GoalSpec& spec) const {
    return workload_.expand(spec);
  }

  /// Allocate a fresh goal id for a goal created on `pe`. Serial ids are
  /// sequential; parallel ids interleave per shard (counter * K + shard
  /// + 1) so they are unique and independent of worker count.
  workload::GoalId next_goal_id(topo::NodeId pe) noexcept {
    if (!par_) return next_goal_id_++;
    ShardState& shard = *par_->shards[shard_of(pe)];
    return shard.goal_counter++ * par_->plan.num_shards + shard_of(pe) + 1;
  }

  // --- Hooks called by PEs -------------------------------------------------

  /// A goal's split/leaf phase just ran on `pe` having travelled `hops`.
  void record_goal_executed(topo::NodeId pe, std::uint32_t hops);

  /// A fresh subgoal was created on `pe` (PE split phase). Routes to the
  /// strategy's placement decision.
  void place_new_goal(topo::NodeId pe, Message msg);

  /// Send a response from `from` to the waiting parent goal on `to`
  /// (shortest-path routed; free if from == to).
  void send_response(topo::NodeId from, topo::NodeId to,
                     workload::GoalId parent_id);

  /// The root goal finished on `pe`: stop the run (pe's shard, in a
  /// parallel run; the other shards stop at the next window barrier).
  void on_root_complete(topo::NodeId pe);

  /// PE became idle (strategy hook passthrough).
  void notify_idle(topo::NodeId pe);

  /// Machine-level execution trace (empty unless config.trace_capacity > 0).
  const Trace& trace() const noexcept { return trace_; }

  /// Read-only view of the message pool, for profiling counters.
  const MessagePool& message_pool() const noexcept { return msg_pool_; }

  /// Engine telemetry aggregated across shards, for obs::Tracer sampling
  /// after a run. Serial runs report the single scheduler with zero
  /// windows/cross traffic.
  struct EngineStats {
    sim::Scheduler::Counters sched;       // summed over shards
    std::uint64_t shards = 1;
    std::uint64_t windows = 0;            // horizon barriers executed
    std::uint64_t window_stalls = 0;      // (shard, window) pairs with 0 events
    std::uint64_t cross_messages = 0;     // messages crossing shard edges
    std::uint64_t msg_pool_reused = 0;    // summed over shard pools
    std::uint64_t channel_waits = 0;      // transmissions that queued
    std::uint64_t peak_waiters = 0;       // summed over shard waiter pools
  };
  EngineStats engine_stats() const;

 private:
  friend class PE;
  friend class LinkChannels<Machine>;

  static std::uint32_t tuned_ring_ticks(const MachineConfig& config,
                                        const workload::Workload& workload);
  static std::uint32_t resolve_diameter(const topo::Topology& topo);

  std::uint32_t shard_of(topo::NodeId pe) const noexcept {
    return par_->plan.shard_of(pe);
  }
  topo::NodeId next_hop(topo::NodeId from, topo::NodeId to) const {
    if (routing_) return routing_->next_hop(from, to);
    const topo::NodeId hop = topo_.analytic_next_hop(from, to);
    ORACLE_ASSERT_MSG(hop != topo::kInvalidNode,
                      "topology offers neither exact nor analytic routing");
    return hop;
  }
  MessagePool& pool_for(topo::NodeId pe) noexcept {
    return par_ ? par_->shards[shard_of(pe)]->pool : msg_pool_;
  }
  /// The channel domain serving the internal links at `pe`.
  LinkChannels<Machine>& channels_for(topo::NodeId pe) noexcept {
    return par_ ? par_->shards[shard_of(pe)]->channels : channels_;
  }
  /// True when delivery at `pe` should be dropped because its shard's run
  /// is over (root completion). Reads only shard-local state in parallel.
  bool stopped_at(topo::NodeId pe) const noexcept {
    return par_ ? par_->shards[shard_of(pe)]->stopped : root_done_;
  }

  void deliver(const Message& msg, topo::NodeId to);
  void deliver_pooled(std::uint32_t slot, topo::NodeId to);
  void deliver_hop(const Hop& hop);  // a link transaction finished
  void transmit(topo::NodeId from, topo::NodeId to, Message msg);
  void transmit_pooled(topo::NodeId from, topo::NodeId to, std::uint32_t slot);
  void count_tx(topo::NodeId from, MsgKind kind);
  sim::Duration occupancy_of(const Message& msg) const noexcept;
  double busy_fraction_since_last_sample();
  void init();

  // Parallel engine (machine_parallel.cpp).
  void setup_parallel();
  /// The link's cross_channels slot, or ParallelState::kInternalLink
  /// (always, in a serial run).
  std::uint32_t cross_index_of(topo::LinkId lid) const noexcept {
    return par_ ? par_->cross_index[lid] : ParallelState::kInternalLink;
  }
  void transmit_over_cross_link(topo::NodeId from, topo::NodeId to,
                                std::uint32_t cross, std::uint32_t slot);
  void broadcast_over_cross_link(topo::NodeId from, topo::LinkId lid,
                                 std::uint32_t cross, std::uint32_t slot);
  void run_parallel();
  void worker_loop(std::uint32_t worker);
  void inject_holdback(ShardState& shard, sim::SimTime window_end);
  double cross_channel_utilization(std::uint32_t cross,
                                   sim::SimTime horizon) const;

  // Keeps a cache-shared topology alive; null when the caller owns the
  // topology (reference-only constructor).
  std::shared_ptr<const topo::Topology> topo_owner_;
  const topo::Topology& topo_;
  const workload::Workload& workload_;
  lb::Strategy& strategy_;
  MachineConfig config_;

  sim::Simulation sim_;
  Rng rng_;
  std::shared_ptr<const topo::RoutingTable> routing_;  // null beyond the
                                                       // exact-routing cap
  std::uint32_t diameter_;
  MessagePool msg_pool_;
  std::unique_ptr<ParallelState> par_;  // null in serial runs

  std::vector<std::unique_ptr<PE>> pes_;
  HotState hot_;
  // One record per topology link, contiguous. A serial run serves them
  // all through channels_; a parallel run through the owning shard's
  // domain, and a link whose members span shards leaves its record idle
  // and routes through ShardState::cross_channels instead.
  std::vector<Channel> links_ = std::vector<Channel>(topo_.num_links());
  LinkChannels<Machine> channels_{sim_.scheduler(), links_.data(), *this};
  std::vector<std::uint32_t> speed_factor_;  // empty when homogeneous

  workload::GoalId next_goal_id_ = 1;
  Trace trace_;
  bool root_done_ = false;
  bool ran_ = false;
  sim::SimTime completion_time_ = 0;

  // Statistics. The recorder owns every sampled column (utilization
  // series, per-PE frames) and the transmission counters; it is sized in
  // init() alongside Scheduler::reserve and moved into the RunResult.
  stats::Histogram goal_hops_;
  stats::MetricsRecorder metrics_;
  stats::SeriesId util_series_ = 0;
  stats::CounterId goal_tx_ = 0;
  stats::CounterId response_tx_ = 0;
  stats::CounterId control_tx_ = 0;
  sim::Duration last_sample_busy_ = 0;
  sim::SimTime last_sample_time_ = 0;
  std::vector<sim::Duration> last_pe_busy_;
};

}  // namespace oracle::machine
