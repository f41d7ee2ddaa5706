#pragma once
// exp::Service — the resident oracle: a memoized serving layer over the
// content-hash result stores. A query names a sweep (grid spec + seeds +
// optional precision target); the service answers every (config, seed)
// point already present in its StoreIndex straight from disk, schedules
// ONLY the missing jobs through the existing batch executor (appended to
// the canonical store, so new records commit durably and byte-identically
// ordered), refreshes the index, and streams progress + final aggregates
// back through a ServiceSink.
//
// Cost model, which is the point: a repeated query is pure index lookups
// — zero jobs scheduled, aggregates byte-identical to `oracle_batch
// aggregate` over the same store — and a novel query costs exactly its
// missing grid points plus an incremental index refresh. The index alone
// decides what is missing: no query rescans a store.
//
// Two front ends share the same query engine:
//   - in-process: library clients construct a Service and call query()
//     with their own sink (the tests do this);
//   - the daemon: start()/run() serve the service_protocol frames over
//     TCP to MANY clients at once.
//
// Daemon concurrency model: one poll thread serves every connection
// through util::FrameServer and answers ping/status/shutdown inline, so
// they never wait behind a query. Queries run on a worker pool in slices
// of at most `job_budget` jobs, round-robin, so a million-point cold
// sweep shares the pool with a one-point warm hit instead of starving
// it. Store appends are serialized and the StoreIndex sits behind a
// readers-writer lock, so every query sees a consistent snapshot:
// concurrency changes scheduling, never results (warm tables stay
// byte-identical to `oracle_batch aggregate`).

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "exp/service_protocol.hpp"
#include "exp/store_index.hpp"
#include "util/net.hpp"

namespace oracle::exp {

struct ServiceOptions {
  /// Canonical JSONL store: cache source AND destination for scheduled
  /// jobs (required).
  std::string store;

  /// Additional read-only stores indexed as cache sources (e.g. per-host
  /// shard stores collected from a fleet run). Never written.
  std::vector<std::string> extra_stores;

  util::HostPort listen{"127.0.0.1", 0};  ///< daemon bind; port 0 ephemeral

  std::size_t exec_threads = 0;  ///< executor workers; 0 = hardware

  /// Optional obs::StatusSnapshot file, atomically rewritten every
  /// obs::kStatusInterval while the daemon runs (phase "serving", request
  /// + cache-hit + connection/queue-depth/in-flight counters).
  std::string status_path;

  /// Precision-target queries stop extending the seed axis after this
  /// many extra rounds even if some grid point is still wider than asked.
  std::size_t max_target_rounds = 8;

  // ---- daemon concurrency knobs ----

  /// Worker threads executing query slices. 0 = auto (min(hardware, 8)).
  /// 1 still keeps the poll loop responsive — queries just execute one
  /// slice at a time.
  std::size_t query_threads = 0;

  /// Fairness budget: max jobs one query may schedule per worker slice
  /// before it yields the worker to the next queued query.
  std::size_t job_budget = 64;

  /// A connection with queued response bytes that accepts none of them
  /// for this long is evicted (the stalled-client bound).
  std::uint32_t write_timeout_ms = 10'000;

  /// A connection holding a partial request frame that sends no further
  /// bytes for this long (measured from its last byte) is evicted.
  std::uint32_t read_timeout_ms = 10'000;

  /// SO_SNDBUF for accepted connections; 0 = OS default. Bounds the bytes
  /// a stalled client can sink into the kernel before write_timeout_ms
  /// governs (also what the eviction tests use to stall cheaply).
  int sndbuf_bytes = 0;
};

/// Outcome of one query.
struct QueryStats {
  std::size_t total = 0;      ///< grid points requested (final round)
  std::size_t cached = 0;     ///< answered from the index, first round
  std::size_t scheduled = 0;  ///< jobs actually executed (all rounds)
  std::size_t failed = 0;     ///< scheduled jobs whose simulation threw
  std::size_t rounds = 1;     ///< sweep rounds (1 + precision extensions)
  std::uint64_t wall_us = 0;

  bool ok() const noexcept { return failed == 0; }
};

/// Streaming back-channel for query(): progress while jobs run, then the
/// rendered outputs. The daemon implements this as frame writes; the CLI
/// query client prints; tests collect.
class ServiceSink {
 public:
  virtual ~ServiceSink() = default;
  virtual void on_progress(std::size_t /*total*/, std::size_t /*cached*/,
                           std::size_t /*scheduled*/,
                           std::size_t /*completed*/) {}
  virtual void on_table(const std::string& /*metric*/,
                        const std::string& /*table*/) {}
  virtual void on_csv(const std::string& /*csv*/) {}
  virtual void on_stats(const QueryStats& /*stats*/) {}
};

/// Aggregate daemon counters (also surfaced via the status op/file).
struct ServiceStats {
  std::size_t requests = 0;      ///< frames parsed and answered
  std::size_t queries = 0;       ///< query ops served
  std::size_t bad_requests = 0;  ///< unparseable/invalid frames
  std::size_t cache_hits = 0;    ///< grid points answered from the index
  std::size_t jobs_scheduled = 0;  ///< jobs executed on behalf of queries
  std::size_t jobs_requested = 0;  ///< grid points asked across queries
  std::size_t evicted = 0;  ///< connections dropped for stalling a deadline
  bool shutdown_requested = false;
};

class Service {
 public:
  explicit Service(ServiceOptions options);
  ~Service();

  Service(const Service&) = delete;
  Service& operator=(const Service&) = delete;

  /// Build the index over store + extra_stores. Idempotent (re-entry
  /// refreshes). Throws ConfigError when no store is configured.
  void open();

  /// Serve one sweep request in-process. Throws ConfigError on an invalid
  /// query (unknown metric, precision target on a master-seed sweep, a
  /// target whose rounds cannot make progress or whose metric is NaN).
  /// Store I/O failures propagate as SimulationError.
  QueryStats query(const ServiceQuery& q, ServiceSink& sink);

  const StoreIndex& index() const;

  // ---- daemon mode ----
  /// open() + bind + listen. Throws SimulationError on bind failure.
  void start();

  /// The actually-bound port (after start(); resolves listen.port == 0).
  std::uint16_t port() const;

  /// Serve frames until stop() or a shutdown request, then drain: queued
  /// queries are failed with a shutdown error, in-flight slices finish,
  /// response buffers flush (for at most 2 s). Returns the
  /// final counters. Call start() first.
  ServiceStats run();

  /// Thread-safe and async-signal-safe shutdown request: wakes run(),
  /// which begins draining at once (commands.cpp installs this as the
  /// SIGINT/SIGTERM action).
  void stop();

  const ServiceStats& stats() const { return stats_; }

 private:
  struct Impl;
  Impl* impl_;
  ServiceOptions options_;
  ServiceStats stats_;
  std::atomic<bool> stop_{false};
};

}  // namespace oracle::exp
