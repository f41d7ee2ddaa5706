#include "exp/service.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <deque>
#include <limits>
#include <memory>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <thread>
#include <unordered_map>
#include <vector>

#include "exp/aggregate.hpp"
#include "exp/batch.hpp"
#include "exp/job_queue.hpp"
#include "obs/status.hpp"
#include "obs/trace.hpp"
#include "util/error.hpp"
#include "util/log.hpp"
#include "util/string_util.hpp"

namespace oracle::exp {

// Internal machinery lives in a named (not anonymous) namespace because
// Service::Impl holds these types as members.
namespace svc_detail {

using Clock = std::chrono::steady_clock;

constexpr std::size_t kUnbudgeted = std::numeric_limits<std::size_t>::max();

/// On shutdown, how long run() keeps flushing queued response bytes to
/// well-behaved clients before closing their connections anyway.
constexpr auto kDrainTimeout = std::chrono::milliseconds(2'000);

/// One query as a resumable state machine. Both front ends drive it:
/// Service::query() loops step() to completion with an unlimited budget
/// (exactly the old inline behaviour — one batch run per round); the
/// daemon's worker pool calls step() with options.job_budget, so each
/// call schedules at most that many jobs before yielding the worker.
///
/// Every step touches the StoreIndex under the readers-writer lock
/// (shared for lookups/aggregation, exclusive for the post-commit
/// refresh) and serializes store appends behind the store mutex, which
/// also covers the index skip before the append and the refresh after it
/// — the batch executor already uses every core, so one append-batch at a
/// time is the fast configuration, not a compromise.
class QueryRun {
 public:
  QueryRun(StoreIndex& index, std::shared_mutex& index_mu,
           std::mutex& store_mu, const ServiceOptions& options, ServiceQuery q)
      : index_(index),
        index_mu_(index_mu),
        store_mu_(store_mu),
        options_(options),
        q_(std::move(q)),
        spec_(q_.sweep),
        targeted_(!q_.target_metric.empty()),
        t0_(Clock::now()) {
    validate();
  }

  /// Advance by one slice: schedule up to `budget` missing jobs (or, with
  /// no jobs left this round, aggregate and either extend the seed axis
  /// or render). Returns true when the query is complete.
  bool step(ServiceSink& sink, std::size_t budget);

  const QueryStats& stats() const { return st_; }

 private:
  void validate() const;
  void plan(ServiceSink& sink);
  bool run_chunk(ServiceSink& sink, std::size_t budget);
  void aggregate();
  bool target_satisfied_or_capped();
  void render(ServiceSink& sink);

  StoreIndex& index_;
  std::shared_mutex& index_mu_;
  std::mutex& store_mu_;
  const ServiceOptions& options_;
  ServiceQuery q_;
  core::SweepSpec spec_;
  bool targeted_;
  Clock::time_point t0_;

  QueryStats st_;
  std::size_t round_ = 0;
  bool planned_ = false;
  std::optional<JobQueue> queue_;
  std::size_t cursor_ = 0;        ///< next job index to examine this round
  std::size_t round_cached_ = 0;  ///< cache hits counted at this round's plan
  std::size_t round_done_ = 0;    ///< jobs executed so far this round
  std::vector<GridPointSummary> groups_;
  // Per-group sample counts of the target metric after the previous
  // round — the no-progress diagnostic compares against these.
  std::vector<std::size_t> prev_group_n_;
  bool have_prev_ = false;
};

void QueryRun::validate() const {
  const auto& known = Aggregator::metric_names();
  const auto known_metric = [&](const std::string& m) {
    return std::find(known.begin(), known.end(), m) != known.end();
  };
  for (const auto& m : q_.metrics)
    ORACLE_REQUIRE(known_metric(m),
                   "unknown metric '" + m + "' (try --metric list)");
  if (targeted_) {
    ORACLE_REQUIRE(known_metric(q_.target_metric),
                   "unknown target metric '" + q_.target_metric + "'");
    ORACLE_REQUIRE(q_.target_ci95 > 0.0, "precision target must be > 0");
    // With a master seed, job seeds derive from sweep *indices*; growing
    // the seed axis renumbers every job, changes every content hash, and
    // re-runs the whole grid each round — refuse rather than thrash.
    ORACLE_REQUIRE(q_.sweep.master_seed == 0,
                   "a precision target cannot be combined with a master "
                   "seed (derived seeds change with the axis length)");
  }
}

void QueryRun::plan(ServiceSink& sink) {
  // The jobs (and hashes) exactly as the batch engine would number and
  // derive them — JobQueue is the single source of job identity.
  queue_.emplace(spec_.build(), spec_.master_seed);
  ORACLE_REQUIRE(!queue_->jobs().empty(), "query names an empty sweep");

  std::size_t cached = 0;
  {
    std::shared_lock<std::shared_mutex> lk(index_mu_);
    for (const auto& job : queue_->jobs())
      if (index_.contains(job.content_hash)) ++cached;
  }
  st_.total = queue_->jobs().size();
  if (round_ == 0) st_.cached = cached;
  st_.rounds = round_ + 1;
  // All cached: run_chunk has nothing to look for.
  cursor_ = cached == st_.total ? st_.total : 0;
  round_cached_ = cached;
  round_done_ = 0;
  planned_ = true;
  sink.on_progress(st_.total, st_.cached, st_.scheduled, cached);
}

bool QueryRun::run_chunk(ServiceSink& sink, std::size_t budget) {
  const auto& jobs = queue_->jobs();
  if (cursor_ >= jobs.size()) return false;
  if (budget == 0) budget = 1;

  // The chunk is the job-index range covering the next `budget` missing
  // jobs. Scheduling through a [lease_begin, lease_end) window over the
  // FULL config list keeps job numbering (and so master-seed derivation
  // and store append order) identical to an unchunked run.
  std::size_t first_missing = jobs.size();
  std::size_t end = cursor_;
  std::size_t missing = 0;
  {
    std::shared_lock<std::shared_mutex> lk(index_mu_);
    for (std::size_t i = cursor_; i < jobs.size(); ++i) {
      if (!index_.contains(jobs[i].content_hash)) {
        if (missing == 0) first_missing = i;
        ++missing;
        end = i + 1;
        if (missing >= budget) break;
      }
    }
  }
  if (missing == 0) {
    cursor_ = jobs.size();
    return false;
  }

  // Schedule only the missing jobs: the slice copies the planned queue's
  // job-index window [first_missing, end) — numbering, derived seeds and
  // hashes included, so store append order matches an unchunked run —
  // and drops every hash the index holds. The store lock spans that skip,
  // the run and the refresh, so the next slice — this query's or a concurrent
  // one's — decides what is missing from an index that already holds
  // these records: no hash is appended twice, and no store is rescanned.
  JobQueue slice = queue_->slice(first_missing, end);
  BatchOptions opt;
  opt.exec.workers = options_.exec_threads;
  opt.exec.progress = false;
  opt.jsonl_path = options_.store;
  opt.resume = true;  // append to the canonical store
  opt.collect = false;
  BatchOutcome outcome;
  {
    std::lock_guard<std::mutex> lk(store_mu_);
    {
      std::shared_lock<std::shared_mutex> ilk(index_mu_);
      slice.skip_completed(index_);
    }
    const auto refresh = [&] {
      std::unique_lock<std::shared_mutex> ilk(index_mu_);
      index_.refresh();
    };
    try {
      outcome = run_batch(slice, opt);
    } catch (...) {
      refresh();  // index the groups that committed before a store error
      throw;
    }
    refresh();
  }
  st_.scheduled += outcome.report.executed + outcome.report.failed;
  st_.failed += outcome.report.failed;
  round_done_ += outcome.report.executed;
  for (const auto& err : outcome.report.errors)
    ORACLE_LOG_ERROR("query job failed: " + err);
  cursor_ = end;
  sink.on_progress(st_.total, st_.cached, st_.scheduled,
                   round_cached_ + round_done_);
  return true;
}

void QueryRun::aggregate() {
  // Aggregate the requested points in sweep order (== store commit order
  // for a store this sweep produced, so tables are byte-identical to
  // `oracle_batch aggregate` over it). Failed jobs have no record and
  // silently contribute nothing, exactly like aggregate-over-store. Each
  // point folds the row its index entry keeps: only the first query to
  // read a record preads and parses it. Only the rendered metrics are
  // summarized, unless the answer needs them all (CSV) or the target
  // check reads one more.
  Aggregator agg;
  {
    std::shared_lock<std::shared_mutex> lk(index_mu_);
    for (const auto& job : queue_->jobs())
      if (const auto* row = index_.row(job.content_hash)) agg.add_row(*row);
  }
  groups_ = targeted_ || q_.want_csv ? agg.summarize()
                                     : agg.summarize(q_.metrics);
}

bool QueryRun::target_satisfied_or_capped() {
  // A NaN target metric poisons every comparison (NaN > target is false,
  // so a NaN interval would silently count as "met") — refuse loudly.
  for (const auto& g : groups_) {
    const auto* m = g.metric(q_.target_metric);
    if (m != nullptr && m->n > 0 &&
        (!std::isfinite(m->mean) || !std::isfinite(m->ci95)))
      throw ConfigError(strfmt(
          "precision target on '%s' cannot be evaluated: the metric is not "
          "finite (NaN) for grid point %s/%s/%s — inspect the store records",
          q_.target_metric.c_str(), g.topology.c_str(), g.strategy.c_str(),
          g.workload.c_str()));
  }

  if (round_ >= options_.max_target_rounds) return true;

  bool met = !groups_.empty();
  for (const auto& g : groups_) {
    const auto* m = g.metric(q_.target_metric);
    // One sample has no interval (ci95 = 0); it never satisfies a
    // target — more seeds are needed to even estimate the width.
    if (m == nullptr || m->n < 2 || m->ci95 > q_.target_ci95) {
      met = false;
      break;
    }
  }
  if (met) return true;

  // Unmet and about to extend: if the previous extension round added no
  // samples anywhere (its scheduled jobs all failed or produced no
  // records), further rounds cannot converge either — a single pinned
  // sample or a grid point whose jobs always throw would otherwise burn
  // every round before reporting nothing.
  std::vector<std::size_t> group_n;
  group_n.reserve(groups_.size());
  for (const auto& g : groups_) {
    const auto* m = g.metric(q_.target_metric);
    group_n.push_back(m != nullptr ? m->n : 0);
  }
  if (have_prev_ && group_n == prev_group_n_)
    throw ConfigError(strfmt(
        "precision target on '%s' cannot make progress: the last extension "
        "round added no new samples (%zu scheduled job(s) failed so far) — "
        "fix the failing configs or drop the target",
        q_.target_metric.c_str(), st_.failed));
  prev_group_n_ = std::move(group_n);
  have_prev_ = true;
  return false;
}

void QueryRun::render(ServiceSink& sink) {
  for (const auto& m : q_.metrics)
    sink.on_table(m, Aggregator::to_table(groups_, m));
  if (q_.want_csv) sink.on_csv(Aggregator::to_csv(groups_));
  st_.wall_us = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(Clock::now() - t0_)
          .count());
  sink.on_stats(st_);
}

bool QueryRun::step(ServiceSink& sink, std::size_t budget) {
  if (!planned_) plan(sink);
  if (run_chunk(sink, budget)) return false;  // yield after scheduling work
  aggregate();
  if (targeted_ && !target_satisfied_or_capped()) {
    // Extend the replication axis with the next fresh seed and go again;
    // every already-run (config, seed) point stays a cache hit.
    const std::uint64_t next =
        *std::max_element(spec_.seeds.begin(), spec_.seeds.end()) + 1;
    spec_.seeds.push_back(next);
    ++round_;
    planned_ = false;
    return false;
  }
  render(sink);
  return true;
}

// ------------------------------------------------------- daemon plumbing --

/// What workers hand the poll thread: encoded response payloads to queue
/// on a connection, and query-completion notices that release the
/// connection for its next request and settle the daemon counters.
struct SvcEvent {
  enum class Kind { kFrame, kQueryDone };
  Kind kind = Kind::kFrame;
  std::uint64_t conn_id = 0;
  std::string payload;     ///< kFrame: one encoded ServiceResponse
  QueryStats stats;        ///< kQueryDone
  bool config_error = false;  ///< kQueryDone: rejected (counts bad_requests)
  bool errored = false;       ///< kQueryDone: ended with an error frame
};

/// One queued query. `run` is created lazily on the first worker slice so
/// request validation (which throws ConfigError) happens on a worker, not
/// the poll thread.
struct QueryTask {
  std::uint64_t conn_id = 0;
  std::uint64_t seq = 0;
  ServiceQuery query;
  std::unique_ptr<QueryRun> run;
};

/// Everything the poll thread and the workers share.
struct DaemonState {
  // Query execution context (set once before workers start).
  StoreIndex* index = nullptr;
  std::shared_mutex* index_mu = nullptr;
  std::mutex* store_mu = nullptr;
  const ServiceOptions* options = nullptr;

  std::mutex mu;  ///< guards ready/in_flight/draining/exit_workers/events
  std::condition_variable cv;
  std::deque<std::unique_ptr<QueryTask>> ready;  ///< round-robin run queue
  std::size_t in_flight = 0;
  bool draining = false;      ///< abort queued queries with a shutdown error
  bool exit_workers = false;  ///< workers return once the queue is empty
  std::deque<SvcEvent> events;
  util::FrameServer* server = nullptr;  ///< wake() only, from workers

  void push_event(SvcEvent ev) {
    {
      std::lock_guard<std::mutex> lk(mu);
      events.push_back(std::move(ev));
    }
    server->wake();
  }
};

/// ServiceSink that encodes each event as one response frame and hands it
/// to the poll thread. Workers never touch sockets.
class EmitSink : public ServiceSink {
 public:
  EmitSink(DaemonState& ds, std::uint64_t conn_id, std::uint64_t seq)
      : ds_(ds), conn_id_(conn_id), seq_(seq) {}

  void on_progress(std::size_t total, std::size_t cached,
                   std::size_t scheduled, std::size_t completed) override {
    ServiceResponse rsp;
    rsp.kind = ServiceResponseKind::kProgress;
    rsp.total = total;
    rsp.cached = cached;
    rsp.scheduled = scheduled;
    rsp.completed = completed;
    send(rsp);
  }

  void on_table(const std::string& metric, const std::string& table) override {
    ServiceResponse rsp;
    rsp.kind = ServiceResponseKind::kTable;
    rsp.metric = metric;
    rsp.text = table;
    send(rsp);
  }

  void on_csv(const std::string& csv) override {
    ServiceResponse rsp;
    rsp.kind = ServiceResponseKind::kCsv;
    rsp.text = csv;
    send(rsp);
  }

  void on_stats(const QueryStats& stats) override {
    ServiceResponse rsp;
    rsp.kind = ServiceResponseKind::kStats;
    rsp.total = stats.total;
    rsp.cached = stats.cached;
    rsp.scheduled = stats.scheduled;
    rsp.failed = stats.failed;
    rsp.rounds = stats.rounds;
    rsp.wall_us = stats.wall_us;
    send(rsp);
  }

  void send_error(const std::string& text) {
    ServiceResponse rsp;
    rsp.kind = ServiceResponseKind::kError;
    rsp.text = text;
    send(rsp);
  }

  void send_done() {
    ServiceResponse rsp;
    rsp.kind = ServiceResponseKind::kDone;
    send(rsp);
  }

  void send(ServiceResponse rsp) {
    rsp.seq = seq_;
    SvcEvent ev;
    ev.kind = SvcEvent::Kind::kFrame;
    ev.conn_id = conn_id_;
    ev.payload = rsp.encode();
    ds_.push_event(std::move(ev));
  }

 private:
  DaemonState& ds_;
  std::uint64_t conn_id_;
  std::uint64_t seq_;
};

/// Worker thread: pop the front query, advance it ONE slice, re-enqueue
/// at the back if unfinished. Round-robin across queries is the fairness
/// guarantee — a giant cold sweep shares the pool slice-by-slice with
/// every warm one-point hit behind it.
void worker_main(DaemonState& ds) {
  while (true) {
    std::unique_ptr<QueryTask> task;
    bool draining = false;
    {
      std::unique_lock<std::mutex> lk(ds.mu);
      ds.cv.wait(lk, [&] { return ds.exit_workers || !ds.ready.empty(); });
      if (ds.ready.empty()) {
        if (ds.exit_workers) return;
        continue;
      }
      task = std::move(ds.ready.front());
      ds.ready.pop_front();
      ++ds.in_flight;
      draining = ds.draining;
    }

    EmitSink sink(ds, task->conn_id, task->seq);
    bool done = false;
    bool config_error = false;
    bool errored = false;
    if (draining) {
      // Shutdown: whatever this query still owed its client becomes one
      // clean error frame — never a torn table.
      sink.send_error(kServiceShuttingDown);
      done = true;
      errored = true;
    } else {
      obs::Span span("serve", "query", "conn",
                     static_cast<std::int64_t>(task->conn_id));
      try {
        if (!task->run)
          task->run = std::make_unique<QueryRun>(
              *ds.index, *ds.index_mu, *ds.store_mu, *ds.options,
              std::move(task->query));
        done = task->run->step(sink, ds.options->job_budget);
        if (done) sink.send_done();
      } catch (const ConfigError& e) {
        sink.send_error(e.what());
        done = true;
        config_error = true;
        errored = true;
      } catch (const std::exception& e) {
        // Store I/O or executor failure: this client gets the error; the
        // daemon keeps serving everyone else.
        sink.send_error(e.what());
        done = true;
        errored = true;
      }
    }

    if (!done) {
      std::lock_guard<std::mutex> lk(ds.mu);
      --ds.in_flight;
      ds.ready.push_back(std::move(task));
      ds.cv.notify_one();
      continue;
    }
    SvcEvent ev;
    ev.kind = SvcEvent::Kind::kQueryDone;
    ev.conn_id = task->conn_id;
    if (task->run) ev.stats = task->run->stats();
    ev.config_error = config_error;
    ev.errored = errored;
    {
      std::lock_guard<std::mutex> lk(ds.mu);
      --ds.in_flight;
      ds.events.push_back(std::move(ev));
    }
    ds.server->wake();
  }
}

/// The service's view of one open connection (the FrameServer owns the
/// socket and its buffers), touched only by the poll thread.
struct Conn {
  bool busy = false;  ///< a query of this connection is queued/in flight
  std::deque<std::string> backlog;  ///< frames parsed while busy (FIFO)
  std::size_t requests = 0;
  std::int64_t trace_t0 = 0;
};

std::size_t resolve_query_threads(std::size_t configured) {
  if (configured != 0) return configured;
  const std::size_t hw = std::thread::hardware_concurrency();
  return std::min<std::size_t>(hw != 0 ? hw : 1, 8);
}

}  // namespace svc_detail

using svc_detail::Clock;

struct Service::Impl {
  explicit Impl(const ServiceOptions& o)
      : server({.max_frame_bytes = kServiceMaxFrameBytes,
                .read_timeout = std::chrono::milliseconds(
                    std::max<std::uint32_t>(1, o.read_timeout_ms)),
                .write_timeout = std::chrono::milliseconds(
                    std::max<std::uint32_t>(1, o.write_timeout_ms)),
                .sndbuf_bytes = o.sndbuf_bytes}) {}

  StoreIndex index;
  std::shared_mutex index_mu;
  std::mutex store_mu;
  bool opened = false;
  util::FrameServer server;
  Clock::time_point started{};
  svc_detail::DaemonState ds;
  std::vector<std::thread> workers;
  std::unordered_map<std::uint64_t, svc_detail::Conn> conns;
};

Service::Service(ServiceOptions options)
    : impl_(new Impl(options)), options_(std::move(options)) {}

Service::~Service() { delete impl_; }

const StoreIndex& Service::index() const { return impl_->index; }

void Service::open() {
  ORACLE_REQUIRE(!options_.store.empty(),
                 "the oracle service requires a --store path");
  std::unique_lock<std::shared_mutex> lk(impl_->index_mu);
  if (!impl_->opened) {
    impl_->index.add_store(options_.store);
    for (const auto& extra : options_.extra_stores)
      impl_->index.add_store(extra);
    impl_->opened = true;
    ORACLE_LOG_INFO(strfmt(
        "store index: %zu record(s) over %zu store(s), %.1f MiB indexed "
        "(%zu duplicate(s), %zu corrupt line(s))",
        impl_->index.size(), impl_->index.store_count(),
        static_cast<double>(impl_->index.indexed_bytes()) / (1 << 20),
        impl_->index.duplicates(), impl_->index.corrupt_lines()));
  } else {
    impl_->index.refresh();
  }
}

QueryStats Service::query(const ServiceQuery& q, ServiceSink& sink) {
  open();
  svc_detail::QueryRun run(impl_->index, impl_->index_mu, impl_->store_mu,
                           options_, q);
  while (!run.step(sink, svc_detail::kUnbudgeted)) {
  }
  return run.stats();
}

std::uint16_t Service::port() const { return impl_->server.port(); }

void Service::stop() {
  stop_.store(true, std::memory_order_relaxed);
  impl_->server.wake();
}

void Service::start() {
  open();
  if (!impl_->server.listen(options_.listen))
    throw SimulationError("oracle service cannot listen on " +
                          options_.listen.str());
  impl_->started = Clock::now();
  ORACLE_LOG_INFO(strfmt(
      "oracle service listening on %s:%u (store %s, %zu cached record(s))",
      options_.listen.host.c_str(), static_cast<unsigned>(port()),
      options_.store.c_str(), impl_->index.size()));
}

ServiceStats Service::run() {
  using svc_detail::Conn;
  using svc_detail::SvcEvent;
  using Kind = util::FrameServer::Event::Kind;

  Impl& im = *impl_;
  ORACLE_REQUIRE(im.server.port() != 0, "Service::start() not called");

  im.ds.index = &im.index;
  im.ds.index_mu = &im.index_mu;
  im.ds.store_mu = &im.store_mu;
  im.ds.options = &options_;
  im.ds.server = &im.server;
  const std::size_t nworkers =
      svc_detail::resolve_query_threads(options_.query_threads);
  for (std::size_t i = 0; i < nworkers; ++i)
    im.workers.emplace_back(svc_detail::worker_main, std::ref(im.ds));

  auto snapshot = [&] {
    obs::StatusSnapshot st;
    // Stopped by a shutdown request or a signal: every snapshot from here
    // on, the last write included, says the daemon is done.
    st.phase = stop_.load(std::memory_order_relaxed) ? "done" : "serving";
    st.jobs_total = stats_.jobs_requested;
    st.jobs_done = stats_.cache_hits + stats_.jobs_scheduled;
    st.elapsed_seconds =
        std::chrono::duration<double>(Clock::now() - im.started).count();
    st.requests = stats_.requests;
    st.cache_hits = stats_.cache_hits;
    st.connections = im.conns.size();
    st.evicted = im.server.evicted();
    {
      std::lock_guard<std::mutex> lk(im.ds.mu);
      st.queue_depth = im.ds.ready.size();
      st.in_flight = im.ds.in_flight;
    }
    return st;
  };
  auto write_status = [&] {
    if (options_.status_path.empty()) return;
    obs::write_status_file(options_.status_path, snapshot());
  };

  auto find_conn = [&](std::uint64_t id) -> Conn* {
    const auto it = im.conns.find(id);
    return it != im.conns.end() && im.server.open(id) ? &it->second : nullptr;
  };

  // Dispatch one parsed request. ping/status/shutdown answer inline on
  // the poll thread (never behind a query); queries go to the worker
  // pool, one in flight per connection (further frames wait in the
  // backlog so response streams of one connection never interleave).
  auto dispatch = [&](std::uint64_t id, Conn& c, const ServiceRequest& req) {
    ++stats_.requests;
    ++c.requests;
    obs::Span span("serve", "request", "op",
                   static_cast<std::int64_t>(req.op));
    ServiceResponse rsp;
    rsp.seq = req.seq;
    rsp.kind = ServiceResponseKind::kOk;
    switch (req.op) {
      case ServiceOp::kPing:
        break;
      case ServiceOp::kStatus:
        rsp.kind = ServiceResponseKind::kStatus;
        rsp.text = snapshot().to_json();
        break;
      case ServiceOp::kShutdown:
        stats_.shutdown_requested = true;
        stop();
        break;
      case ServiceOp::kQuery: {
        ++stats_.queries;
        c.busy = true;
        auto task = std::make_unique<svc_detail::QueryTask>();
        task->conn_id = id;
        task->seq = req.seq;
        task->query = req.query;
        {
          std::lock_guard<std::mutex> lk(im.ds.mu);
          im.ds.ready.push_back(std::move(task));
        }
        im.ds.cv.notify_one();
        return;
      }
    }
    im.server.send(id, rsp.encode());
  };

  // Parse and dispatch frames in order until the connection is busy with
  // a query or dropped; an unparseable request means the stream is not
  // trusted.
  auto drain_backlog = [&](std::uint64_t id, Conn& c) {
    while (!c.busy && !c.backlog.empty() && im.server.open(id)) {
      const std::string payload = std::move(c.backlog.front());
      c.backlog.pop_front();
      const auto req = ServiceRequest::parse(payload);
      if (!req) {
        ++stats_.bad_requests;
        im.server.close(id);
        return;
      }
      dispatch(id, c, *req);
    }
  };

  auto apply_event = [&](const SvcEvent& ev) {
    Conn* c = find_conn(ev.conn_id);
    if (ev.kind == SvcEvent::Kind::kFrame) {
      if (c != nullptr) im.server.send(ev.conn_id, ev.payload);
      return;
    }
    if (ev.config_error) ++stats_.bad_requests;
    if (!ev.errored) {
      const QueryStats& qs = ev.stats;
      stats_.jobs_requested += qs.total;
      stats_.cache_hits += qs.cached;
      stats_.jobs_scheduled += qs.scheduled;
      ORACLE_LOG_INFO(strfmt(
          "query: %zu point(s), %zu cached, %zu scheduled, %zu failed, "
          "%zu round(s), %.1f ms",
          qs.total, qs.cached, qs.scheduled, qs.failed, qs.rounds,
          static_cast<double>(qs.wall_us) / 1e3));
    }
    if (c == nullptr) return;
    c->busy = false;  // the query is done: release the connection
    drain_backlog(ev.conn_id, *c);
  };

  auto apply_worker_events = [&] {
    std::deque<SvcEvent> events;
    {
      std::lock_guard<std::mutex> lk(im.ds.mu);
      events.swap(im.ds.events);
    }
    for (const auto& ev : events) apply_event(ev);
  };

  auto close_conn_trace = [&](std::uint64_t id, const Conn& c) {
    if (!obs::Tracer::enabled()) return;
    obs::TraceEvent ev;
    ev.cat = "serve";
    ev.name = "connection";
    ev.ph = 'X';
    ev.ts_ns = c.trace_t0;
    ev.dur_ns = obs::Tracer::now_ns() - c.trace_t0;
    ev.arg0_name = "conn";
    ev.arg0 = static_cast<std::int64_t>(id);
    ev.arg1_name = "requests";
    ev.arg1 = static_cast<std::int64_t>(c.requests);
    obs::Tracer::emit(ev);
  };

  auto next_status = Clock::now() + obs::kStatusInterval;
  write_status();

  bool draining = false;
  Clock::time_point drain_deadline{};

  while (true) {
    const auto now = Clock::now();

    if (!draining && stop_.load(std::memory_order_relaxed)) {
      // Shutdown: stop accepting, fail queued queries, let in-flight
      // slices finish, flush what clients will take, then leave.
      draining = true;
      drain_deadline = now + svc_detail::kDrainTimeout;
      im.server.stop_accepting();
      {
        std::lock_guard<std::mutex> lk(im.ds.mu);
        im.ds.draining = true;
      }
      im.ds.cv.notify_all();
    }
    if (draining) {
      bool engine_idle = false;
      bool events_pending = true;
      {
        std::lock_guard<std::mutex> lk(im.ds.mu);
        engine_idle = im.ds.ready.empty() && im.ds.in_flight == 0;
        events_pending = !im.ds.events.empty();
      }
      if ((engine_idle && !events_pending && im.server.flushed()) ||
          now >= drain_deadline)
        break;
    }

    util::NetDeadline until = util::NetDeadline::max();
    if (!options_.status_path.empty()) {
      if (now >= next_status) {
        next_status = now + obs::kStatusInterval;
        write_status();
      }
      until = next_status;
    }
    if (draining) until = std::min(until, drain_deadline);

    auto io = im.server.poll(until);
    stats_.evicted = im.server.evicted();
    // Worker completions first: frames queue onto their connections and
    // finished queries release them before new input is dispatched.
    apply_worker_events();
    for (auto& ev : io) {
      switch (ev.kind) {
        case Kind::kOpened: {
          Conn& c = im.conns[ev.conn];
          c.trace_t0 = obs::Tracer::enabled() ? obs::Tracer::now_ns() : 0;
          obs::instant("serve", "conn.accept", "conn",
                       static_cast<std::int64_t>(ev.conn));
          break;
        }
        case Kind::kFrame: {
          Conn* c = find_conn(ev.conn);
          if (c == nullptr) break;
          // Strictly ordered per connection; a flooding client is bounded.
          if (c->backlog.size() >= 64) {
            im.server.close(ev.conn);
            break;
          }
          c->backlog.push_back(std::move(ev.payload));
          drain_backlog(ev.conn, *c);
          break;
        }
        case Kind::kClosed: {
          const auto it = im.conns.find(ev.conn);
          if (it == im.conns.end()) break;
          close_conn_trace(ev.conn, it->second);
          im.conns.erase(it);
          break;
        }
      }
    }
  }

  // Stop the pool. Workers drain the (now draining-flagged) queue by
  // answering each remaining query with a shutdown error, then exit.
  {
    std::lock_guard<std::mutex> lk(im.ds.mu);
    im.ds.exit_workers = true;
  }
  im.ds.cv.notify_all();
  for (auto& w : im.workers) w.join();
  im.workers.clear();

  // Settle counters from any completions that raced the drain decision:
  // with the connections closed their frames have no takers, but the
  // stats still count.
  im.server.shutdown();
  apply_worker_events();
  for (const auto& [id, c] : im.conns) close_conn_trace(id, c);
  im.conns.clear();

  write_status();
  return stats_;
}

}  // namespace oracle::exp
