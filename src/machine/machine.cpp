#include "machine/machine.hpp"

#include <algorithm>

#include "stats/accumulator.hpp"
#include "util/error.hpp"
#include "util/string_util.hpp"

namespace oracle::machine {

namespace {
// Initial per-run capacity of the sampled columns (frames and series
// samples). Covers a completion time of 512 sampling intervals without
// reallocation; longer runs double geometrically.
constexpr std::size_t kExpectedFrames = 512;
}  // namespace

std::uint32_t Machine::tuned_ring_ticks(const MachineConfig& config,
                                        const workload::Workload& workload) {
  // The timing wheel should cover the model's typical event horizon: the
  // costliest single message hop and the root goal's phase costs, with 4x
  // headroom so strategy timers (periodic broadcasts, steal backoffs on
  // the same scale) stay on the wheel rather than in the overflow heap.
  const std::uint32_t max_words = std::max(
      {config.goal_msg_size, config.response_msg_size, config.ctrl_msg_size});
  sim::Duration span = std::max(config.hop_latency, config.ctrl_latency) +
                       config.word_time * static_cast<sim::Duration>(max_words);
  const workload::Expansion root = workload.expand(workload.root());
  span = std::max({span, root.exec_cost, root.combine_cost});
  const std::uint64_t target = std::clamp<std::uint64_t>(
      static_cast<std::uint64_t>(span) * 4, sim::Scheduler::kDefaultRingTicks,
      sim::Scheduler::kMaxRingTicks);
  return sim::Scheduler::normalize_ring_ticks(
      static_cast<std::uint32_t>(target));
}

std::uint32_t Machine::resolve_diameter(const topo::Topology& topo) {
  if (topo.num_nodes() <= topo::kExactRoutingMaxNodes)
    return topo::DistanceMatrix(topo).diameter();
  const std::int64_t hint = topo.diameter_hint();
  ORACLE_REQUIRE(
      hint >= 0,
      strfmt("topology %s has %u nodes (over the %u-node exact-routing cap) "
             "but provides no closed-form diameter",
             topo.name().c_str(), topo.num_nodes(),
             topo::kExactRoutingMaxNodes));
  return static_cast<std::uint32_t>(hint);
}

Machine::Machine(const topo::Topology& topo, const workload::Workload& workload,
                 lb::Strategy& strategy, const MachineConfig& config)
    : topo_(topo),
      workload_(workload),
      strategy_(strategy),
      config_(config),
      sim_(tuned_ring_ticks(config, workload)),
      rng_(config.seed),
      routing_(topo.num_nodes() <= topo::kExactRoutingMaxNodes
                   ? std::make_shared<const topo::RoutingTable>(topo)
                   : nullptr),
      diameter_(resolve_diameter(topo)),
      trace_(config.trace_capacity) {
  init();
}

Machine::Machine(topo::SharedTopology shared,
                 const workload::Workload& workload, lb::Strategy& strategy,
                 const MachineConfig& config)
    : topo_owner_(shared.topology),
      topo_(*topo_owner_),
      workload_(workload),
      strategy_(strategy),
      config_(config),
      sim_(tuned_ring_ticks(config, workload)),
      rng_(config.seed),
      routing_(std::move(shared.routing)),
      diameter_(shared.diameter),
      trace_(config.trace_capacity) {
  ORACLE_REQUIRE(
      routing_ == nullptr || routing_->num_nodes() == topo_.num_nodes(),
      "shared routing table does not match the topology");
  init();
}

Machine::~Machine() = default;

void Machine::init() {
  ORACLE_REQUIRE(config_.start_pe < topo_.num_nodes(),
                 "start_pe outside the topology");
  ORACLE_REQUIRE(config_.hop_latency >= 0 && config_.ctrl_latency >= 0,
                 "latencies must be non-negative");
  if (!routing_ && topo_.num_nodes() > 1) {
    // Fail fast with a clear message instead of asserting mid-run: beyond
    // the exact-routing cap the topology must route in closed form.
    ORACLE_REQUIRE(
        topo_.analytic_next_hop(0, topo_.num_nodes() - 1) !=
            topo::kInvalidNode,
        strfmt("topology %s exceeds the exact-routing cap (%u nodes) and "
               "offers no analytic routing",
               topo_.name().c_str(), topo_.num_nodes()));
  }

  hot_.resize(topo_.num_nodes());

  // Shards (and their schedulers) must exist before PEs: each PE caches a
  // pointer to its owning scheduler at construction.
  if (config_.sim_threads > 1) setup_parallel();

  const bool huge = topo_.num_nodes() > kHugeMachinePEs;
  const std::size_t links = topo_.num_links();
  if (!par_) {
    // Pre-size the event engine so the steady state never reallocates: at
    // most one execution event per PE plus one in-service event per channel
    // server are outstanding, with headroom for strategy timers (periodic
    // broadcasts, steal backoffs) and the sampler. Huge machines get lean
    // sizing (a million idle PEs never have 8 events each in flight).
    sim_.scheduler().reserve(
        huge ? 2 * static_cast<std::size_t>(topo_.num_nodes()) + 64
             : 8 * static_cast<std::size_t>(topo_.num_nodes()) + 2 * links +
                   64);
    msg_pool_.reserve(huge ? kHugeMachinePEs : 2 * links + 64);
  }

  // Pre-size the metrics columns the same way: steady-state sampling then
  // writes into preallocated frames instead of constructing vectors. The
  // frame estimate is a capacity hint — longer runs grow geometrically.
  const bool frames_on = config_.sample_interval > 0 && config_.monitor_per_pe;
  metrics_.reserve(topo_.num_nodes(), frames_on ? kExpectedFrames : 0);
  util_series_ = metrics_.add_series(
      "utilization_percent",
      config_.sample_interval > 0 ? kExpectedFrames : 1);
  goal_tx_ = metrics_.add_counter("goal_transmissions");
  response_tx_ = metrics_.add_counter("response_transmissions");
  control_tx_ = metrics_.add_counter("control_transmissions");

  pes_.reserve(topo_.num_nodes());
  for (topo::NodeId id = 0; id < topo_.num_nodes(); ++id)
    pes_.push_back(std::make_unique<PE>(*this, id));

  if (config_.slow_pe_percent > 0) {
    ORACLE_REQUIRE(config_.slow_pe_percent <= 100,
                   "slow_pe_percent must be in [0, 100]");
    ORACLE_REQUIRE(config_.slow_factor >= 1, "slow_factor must be >= 1");
    // Deterministic selection from a dedicated stream so the same seed
    // degrades the same PEs regardless of strategy behaviour.
    Rng selector = Rng(config_.seed).split(0x5105);
    speed_factor_.assign(topo_.num_nodes(), 1);
    for (auto& f : speed_factor_)
      if (selector.below(100) < config_.slow_pe_percent)
        f = config_.slow_factor;
  }

  strategy_.attach(*this);
}

void Machine::keep_goal(topo::NodeId pe, const Message& msg) {
  ORACLE_ASSERT(msg.kind == MsgKind::Goal);
  trace_.record(now(), TraceEvent::GoalKept, msg.src, pe, msg.goal_id,
                msg.hops);
  pes_[pe]->enqueue_goal(msg);
}

sim::Duration Machine::occupancy_of(const Message& msg) const noexcept {
  sim::Duration latency =
      msg.kind == MsgKind::Control ? config_.ctrl_latency : config_.hop_latency;
  if (config_.word_time > 0) {
    const std::uint32_t size = msg.kind == MsgKind::Goal
                                   ? config_.goal_msg_size
                                   : msg.kind == MsgKind::Response
                                         ? config_.response_msg_size
                                         : config_.ctrl_msg_size;
    latency += config_.word_time * static_cast<sim::Duration>(size);
  }
  return latency;
}

void Machine::count_tx(topo::NodeId from, MsgKind kind) {
  if (par_) {
    // Shard-local counters (the shared recorder would race); flushed into
    // metrics_ after the run.
    ShardState& shard = *par_->shards[shard_of(from)];
    switch (kind) {
      case MsgKind::Goal: ++shard.goal_tx; break;
      case MsgKind::Response: ++shard.response_tx; break;
      case MsgKind::Control: ++shard.control_tx; break;
    }
    return;
  }
  switch (kind) {
    case MsgKind::Goal: metrics_.add(goal_tx_); break;
    case MsgKind::Response: metrics_.add(response_tx_); break;
    case MsgKind::Control: metrics_.add(control_tx_); break;
  }
}

void Machine::transmit(topo::NodeId from, topo::NodeId to, Message msg) {
  // Park the payload in the pool: the completion event carries a 4-byte
  // slot index, keeping the callback inline (and the hop allocation-free).
  // The message stays pooled across every hop of a multi-hop route.
  transmit_pooled(from, to, pool_for(from).put(std::move(msg)));
}

void Machine::transmit_pooled(topo::NodeId from, topo::NodeId to,
                              std::uint32_t slot) {
  Message& msg = pool_for(from).at(slot);
  msg.src = from;
  if (config_.piggyback_load && msg.kind != MsgKind::Control)
    msg.piggyback_load = load_of(from);
  const sim::Duration latency = occupancy_of(msg);
  count_tx(from, msg.kind);
  switch (msg.kind) {
    case MsgKind::Goal:
      trace_.record(now(), TraceEvent::GoalSent, from, to, msg.goal_id,
                    msg.hops);
      break;
    case MsgKind::Response:
      trace_.record(now(), TraceEvent::ResponseSent, from, to, msg.parent_id,
                    0);
      break;
    case MsgKind::Control:
      trace_.record(now(), TraceEvent::ControlSent, from, to,
                    workload::kInvalidGoal, msg.ctrl_tag);
      break;
  }
  const topo::LinkId lid = topo_.link_between(from, to);
  ORACLE_ASSERT_MSG(lid != topo::kInvalidLink,
                    "message between non-adjacent PEs");
  const std::uint32_t cross = cross_index_of(lid);
  if (cross != ParallelState::kInternalLink) {
    transmit_over_cross_link(from, to, cross, slot);
    return;
  }
  channels_for(from).occupy(lid, latency, Hop{slot, to, HopKind::Unicast});
}

void Machine::send_goal(topo::NodeId from, topo::NodeId to, Message msg) {
  ORACLE_ASSERT(msg.kind == MsgKind::Goal);
  ORACLE_ASSERT_MSG(topo_.are_neighbors(from, to),
                    "goals move one neighbor hop at a time");
  transmit(from, to, std::move(msg));
}

void Machine::send_control(topo::NodeId from, topo::NodeId to,
                           std::uint32_t tag, std::int64_t value) {
  transmit(from, to, Message::control(tag, value));
}

void Machine::broadcast_control(topo::NodeId from, std::uint32_t tag,
                                std::int64_t value) {
  // One channel transaction per attached link; a bus delivers to every
  // member in that single transaction. All transactions share one pooled
  // payload: each holds a reference, and the broadcast's own reference
  // keeps the slot alive until every transaction is issued.
  MessagePool& pool = pool_for(from);
  Message msg = Message::control(tag, value);
  msg.src = from;
  const sim::Duration occupancy = occupancy_of(msg);
  const std::uint32_t slot = pool.put(std::move(msg));
  LinkChannels<Machine>& channels = channels_for(from);
  for (const topo::LinkId lid : topo_.links_of(from)) {
    count_tx(from, MsgKind::Control);
    trace_.record(now(), TraceEvent::ControlSent, from, topo::kInvalidNode,
                  workload::kInvalidGoal, tag);
    const std::uint32_t cross = cross_index_of(lid);
    if (cross != ParallelState::kInternalLink) {
      broadcast_over_cross_link(from, lid, cross, slot);
      continue;
    }
    pool.retain(slot);
    channels.occupy(lid, occupancy, Hop{slot, lid, HopKind::Broadcast});
  }
  pool.release(slot);
}

void Machine::deliver_hop(const Hop& hop) {
  if (hop.kind == HopKind::Unicast) {
    deliver_pooled(hop.slot, hop.target);
    return;
  }
  // A broadcast transaction: the sender rides in msg.src, and the link is
  // internal, so its members share the sender's pool.
  const auto members = topo_.link_members(hop.target);
  MessagePool& owner = pool_for(members[0]);
  const Message& delivered = owner.at(hop.slot);
  for (const topo::NodeId member : members)
    if (member != delivered.src) deliver(delivered, member);
  owner.release(hop.slot);
}

void Machine::send_response(topo::NodeId from, topo::NodeId to,
                            workload::GoalId parent_id) {
  if (from == to) {
    // Local response: parent goal waits on the same PE; no channel involved.
    pes_[to]->deliver_response(parent_id);
    return;
  }
  Message msg = Message::response(parent_id, to);
  transmit(from, next_hop(from, to), std::move(msg));
}

// Copy-based delivery, used by broadcasts (one payload, many receivers).
void Machine::deliver(const Message& msg, topo::NodeId to) {
  if (stopped_at(to)) return;  // run is over; drop in-flight traffic
  if (msg.piggyback_load >= 0 && msg.src != topo::kInvalidNode)
    strategy_.on_neighbor_load(to, msg.src, msg.piggyback_load);

  switch (msg.kind) {
    case MsgKind::Goal:
      strategy_.on_goal_arrived(to, msg);
      return;
    case MsgKind::Response:
      if (msg.dst == to) {
        pes_[to]->deliver_response(msg.parent_id);
      } else {
        transmit(to, next_hop(to, msg.dst), msg);
      }
      return;
    case MsgKind::Control:
      strategy_.on_control(to, msg);
      return;
  }
}

// Pooled unicast delivery: the message is only copied out of the pool at
// its terminal hop (goal arrival); response forwarding re-transmits the
// same slot with zero copies.
void Machine::deliver_pooled(std::uint32_t slot, topo::NodeId to) {
  MessagePool& pool = pool_for(to);
  if (stopped_at(to)) {  // run is over; drop in-flight traffic
    pool.release(slot);
    return;
  }
  Message& msg = pool.at(slot);
  if (msg.piggyback_load >= 0 && msg.src != topo::kInvalidNode)
    strategy_.on_neighbor_load(to, msg.src, msg.piggyback_load);

  switch (msg.kind) {
    case MsgKind::Goal:
      strategy_.on_goal_arrived(to, pool.take(slot));
      return;
    case MsgKind::Response:
      if (msg.dst == to) {
        const workload::GoalId parent_id = msg.parent_id;
        pool.release(slot);
        pes_[to]->deliver_response(parent_id);
      } else {
        transmit_pooled(to, next_hop(to, msg.dst), slot);
      }
      return;
    case MsgKind::Control:
      strategy_.on_control(to, msg);
      pool.release(slot);
      return;
  }
}

void Machine::place_new_goal(topo::NodeId pe, Message msg) {
  trace_.record(now(), TraceEvent::GoalCreated, pe, pe, msg.goal_id, 0);
  strategy_.on_goal_created(pe, std::move(msg));
}

void Machine::record_goal_executed(topo::NodeId pe, std::uint32_t hops) {
  trace_.record(now(), TraceEvent::GoalExecuted, pe, pe,
                workload::kInvalidGoal, hops);
  if (par_)
    par_->shards[shard_of(pe)]->goal_hops.add(hops);
  else
    goal_hops_.add(hops);
}

void Machine::on_root_complete(topo::NodeId pe) {
  if (par_) {
    ShardState& shard = *par_->shards[shard_of(pe)];
    ORACLE_ASSERT(!shard.stopped);
    shard.stopped = true;
    shard.completion_time = shard.sim.now();
    shard.sim.scheduler().request_stop();
    // The main thread notices at the next window barrier; the other
    // shards finish the current window (keeping the trajectory a function
    // of K alone) and then stop.
    par_->completed.store(true, std::memory_order_release);
    return;
  }
  ORACLE_ASSERT(!root_done_);
  root_done_ = true;
  completion_time_ = now();
  trace_.record(now(), TraceEvent::RootCompleted, topo::kInvalidNode,
                topo::kInvalidNode, 1, 0);
  scheduler().request_stop();
}

void Machine::notify_idle(topo::NodeId pe) {
  if (!stopped_at(pe)) strategy_.on_pe_idle(pe);
}

double Machine::busy_fraction_since_last_sample() {
  sim::Duration busy = 0;
  for (std::uint32_t i = 0; i < num_pes(); ++i)
    busy += hot_.busy_through(i, now());
  const sim::Duration delta_busy = busy - last_sample_busy_;
  const sim::Duration delta_t = now() - last_sample_time_;
  last_sample_busy_ = busy;
  last_sample_time_ = now();
  if (delta_t <= 0) return 0.0;
  return static_cast<double>(delta_busy) /
         (static_cast<double>(num_pes()) * static_cast<double>(delta_t));
}

Machine::EngineStats Machine::engine_stats() const {
  EngineStats s;
  if (!par_) {
    s.sched = sim_.scheduler().counters();
    s.msg_pool_reused = msg_pool_.reused();
    s.channel_waits = channels_.waits();
    s.peak_waiters = channels_.peak_waiters();
    return s;
  }
  s.shards = par_->plan.num_shards;
  s.windows = par_->windows;
  for (const auto& shard : par_->shards) {
    const sim::Scheduler::Counters c = shard->sim.scheduler().counters();
    s.sched.executed += c.executed;
    s.sched.cancelled += c.cancelled;
    s.sched.wheel_scheduled += c.wheel_scheduled;
    s.sched.heap_scheduled += c.heap_scheduled;
    s.sched.tick_batches += c.tick_batches;
    s.sched.base_slides += c.base_slides;
    s.window_stalls += shard->window_stalls;
    s.cross_messages += shard->cross_sent;
    s.msg_pool_reused += shard->pool.reused();
    s.channel_waits += shard->channels.waits();
    s.peak_waiters += shard->channels.peak_waiters();
  }
  return s;
}

stats::RunResult Machine::run() {
  ORACLE_ASSERT_MSG(!ran_, "Machine::run() called twice");
  ran_ = true;

  strategy_.on_start();

  if (par_) {
    run_parallel();
  } else {
    if (config_.sample_interval > 0) {
      if (config_.monitor_per_pe) last_pe_busy_.assign(num_pes(), 0);
      sim_.add_sampler(
          config_.sample_interval,
          [this](sim::SimTime t) {
            if (t == 0) return;  // nothing elapsed yet
            if (config_.monitor_per_pe) {
              // Per-PE busy fraction over the elapsed interval (uses the
              // pre-update last_sample_time_), written straight into the
              // recorder's preallocated columns — no per-frame vector.
              const double span = static_cast<double>(t - last_sample_time_);
              const stats::MetricsRecorder::FrameRef frame =
                  metrics_.begin_frame(t);
              for (std::uint32_t pe = 0; pe < num_pes(); ++pe) {
                double u = 0.0;
                if (span > 0) {
                  const sim::Duration busy = hot_.busy_through(pe, t);
                  u = static_cast<double>(busy - last_pe_busy_[pe]) / span;
                  last_pe_busy_[pe] = busy;
                }
                frame.utilization[pe] = u;
                frame.queue_depth[pe] = hot_.load(pe, config_.load_measure);
              }
            }
            metrics_.append(util_series_, t,
                            busy_fraction_since_last_sample() * 100.0);
          },
          config_.sample_interval);
    }

    // Inject the root goal: it is *created* on start_pe, so the strategy
    // makes the same placement decision it would for any subgoal. Built
    // inside the event so the capture stays inline-sized.
    scheduler().schedule_at(0, [this] {
      Message root =
          Message::goal(next_goal_id(config_.start_pe), workload_.root(),
                        workload::kInvalidGoal, topo::kInvalidNode);
      place_new_goal(config_.start_pe, std::move(root));
    });

    sim_.run(config_.max_events);
  }
  ORACLE_ASSERT_MSG(root_done_,
                    "simulation drained its event list before the root goal "
                    "completed (model deadlock)");

  // ---- Aggregate --------------------------------------------------------
  const EngineStats engine = engine_stats();

  stats::RunResult r;
  r.topology = topo_.name();
  r.strategy = strategy_.name();
  r.workload = workload_.name();
  r.num_pes = num_pes();
  r.seed = config_.seed;
  r.completion_time = completion_time_;
  r.events_executed = engine.sched.executed;

  sim::Duration total_busy = 0;
  r.pe_utilization.reserve(num_pes());
  r.pe_goals.reserve(num_pes());
  stats::Accumulator util_acc;
  for (std::uint32_t i = 0; i < num_pes(); ++i) {
    const sim::Duration busy = hot_.busy_through(i, completion_time_);
    total_busy += busy;
    const double u =
        completion_time_ > 0
            ? static_cast<double>(busy) / static_cast<double>(completion_time_)
            : 0.0;
    r.pe_utilization.push_back(u);
    util_acc.add(u);
    r.pe_goals.push_back(hot_.goals_executed[i]);
    r.goals_executed += hot_.goals_executed[i];
  }
  r.utilization_cv =
      util_acc.mean() > 0 ? util_acc.stddev() / util_acc.mean() : 0.0;
  r.max_min_utilization_gap = util_acc.max() - util_acc.min();
  r.total_work = total_busy;
  r.avg_utilization =
      completion_time_ > 0
          ? static_cast<double>(total_busy) /
                (static_cast<double>(num_pes()) * static_cast<double>(completion_time_))
          : 0.0;
  r.speedup = r.avg_utilization * static_cast<double>(num_pes());

  r.goal_hops = goal_hops_;
  r.avg_goal_distance = goal_hops_.mean();
  r.goal_transmissions = metrics_.counter_value(goal_tx_);
  r.response_transmissions = metrics_.counter_value(response_tx_);
  r.control_transmissions = metrics_.counter_value(control_tx_);

  double channel_util_sum = 0.0;
  for (topo::LinkId lid = 0; lid < links_.size(); ++lid) {
    const std::uint32_t cross = cross_index_of(lid);
    const double u = cross == ParallelState::kInternalLink
                         ? links_[lid].utilization(completion_time_)
                         : cross_channel_utilization(cross, completion_time_);
    channel_util_sum += u;
    r.max_channel_utilization = std::max(r.max_channel_utilization, u);
  }
  r.avg_channel_utilization =
      links_.empty() ? 0.0
                     : channel_util_sum / static_cast<double>(links_.size());

  // Hand the whole recorder to the result (trimmed to what was recorded):
  // series and frame views stay valid for as long as the RunResult lives.
  metrics_.compact();
  r.metrics = std::move(metrics_);
  return r;
}

}  // namespace oracle::machine
