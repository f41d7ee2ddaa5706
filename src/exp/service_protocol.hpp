#pragma once
// Wire protocol for the resident oracle service (oracle_batch serve /
// query). Same dialect family as exp/lease_protocol.hpp — length-prefixed
// frames (util::send_frame) carrying versioned space-separated text — and
// the same codec underneath: one verb table per message in
// service_protocol.cpp drives util::Dialect (util/verb_codec.hpp). A row
// names the verb, the fields its u64 arguments fill in order, an optional
// one-word field (a table's metric) and an optional trailing free text.
//
//   request  := "s1 <seq> <op> [<body>]"
//   response := "s1 <seq> <kind> <u64>... [<word>] [<text>]"
//
// `seq` is chosen by the client and echoed in every response frame of the
// exchange, so a stale or replayed frame is recognised and dropped.
//
// Ops: ping -> ok; status -> status; shutdown -> ok (the server drains
// and exits); query <k=v>... -> progress* stats table* [csv] done (or
// error). The query body is the one part with its own grammar, space-
// separated keys whose values are comma lists or scalars without spaces:
//   preset=NAME     topos=A,B    strats=A,B    works=A,B    seeds=CSV
//   master=M        sample=N     hoplat=N      simthreads=N simparts=K
//   metrics=A,B     csv=0|1      target=METRIC:HALFWIDTH
//
// Response kinds:
//   ok        request accepted
//   error     rejected (the text explains)
//   status    obs::StatusSnapshot JSON
//   progress  total/cached/scheduled/done counts, one per executed round
//   stats     total/cached/scheduled/failed counts, rounds and wall_us
//   table     one rendered summary table, after its metric name
//   csv       long-format summary CSV
//   done      end of the query stream
//
// Tables and CSV bodies are free text (spaces, newlines) transported
// byte-exactly — the client's output must match `oracle_batch aggregate`
// to the byte, that being the whole point of the cache.
//
// Concurrency semantics (the daemon serves many connections at once):
//   - Within ONE connection, requests are answered strictly in the order
//     they were sent; a second request sent while a query streams is
//     queued behind it, so response frames of different exchanges never
//     interleave on a connection.
//   - Across connections there is no ordering; queries execute
//     concurrently on a worker pool and ping/status answer immediately
//     even while heavy queries run.
//   - A client that stops reading while the server has responses queued
//     for it is EVICTED after a deadline: the connection is closed (the
//     client sees EOF, possibly mid-frame), never the daemon blocked.
//   - On shutdown mid-query the server either completes the stream or
//     sends `error` with kServiceShuttingDown and closes after flushing
//     — a client never observes a torn half-frame from a graceful stop.

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/sweep.hpp"

namespace oracle::exp {

inline constexpr const char* kServiceProtoVersion = "s1";

/// Aggregate tables over large grids outgrow the lease protocol's 64 KiB
/// frame cap; both service peers agree on this one instead.
inline constexpr std::size_t kServiceMaxFrameBytes = 4u << 20;

/// `error` text a query aborted by daemon shutdown carries; clients match
/// on it to distinguish "server going away" from a rejected request.
inline constexpr const char* kServiceShuttingDown = "service shutting down";

enum class ServiceOp { kPing, kStatus, kQuery, kShutdown };

/// One sweep/aggregate request: which grid, which output, and optionally
/// a precision target (keep scheduling fresh seeds until every grid
/// point's 95% CI half-width for `target_metric` is <= target_ci95).
struct ServiceQuery {
  core::SweepSpec sweep;
  std::vector<std::string> metrics{"speedup"};
  bool want_csv = false;
  std::string target_metric;  ///< "" = no precision target
  double target_ci95 = 0.0;
};

struct ServiceRequest {
  std::uint64_t seq = 0;
  ServiceOp op = ServiceOp::kPing;
  ServiceQuery query;  ///< op == kQuery only

  std::string encode() const;
  static std::optional<ServiceRequest> parse(const std::string& payload);
};

enum class ServiceResponseKind {
  kOk,
  kError,
  kStatus,
  kProgress,
  kStats,
  kTable,
  kCsv,
  kDone
};

struct ServiceResponse {
  std::uint64_t seq = 0;
  ServiceResponseKind kind = ServiceResponseKind::kError;

  // progress / stats counters (subset used per kind; see header comment).
  std::uint64_t total = 0;
  std::uint64_t cached = 0;
  std::uint64_t scheduled = 0;
  std::uint64_t completed = 0;
  std::uint64_t failed = 0;
  std::uint64_t rounds = 0;
  std::uint64_t wall_us = 0;

  std::string metric;  ///< table only
  std::string text;    ///< error / status / table / csv body (byte-exact)

  std::string encode() const;
  static std::optional<ServiceResponse> parse(const std::string& payload);
};

}  // namespace oracle::exp
