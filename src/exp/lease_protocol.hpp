#pragma once
// Wire protocol for the lease service. Frames are length-prefixed
// (util::send_frame); payloads are versioned space-separated text so the
// journal, traces, and a human with netcat all read the same dialect.
//
//   request  := "v1 <seq> <op> <u64>..."
//   response := "v1 <seq> <kind> <u64>... [<text>]"
//
// `seq` is chosen by the client and echoed verbatim in the response, so a
// duplicated or stale response (retry racing the original, a proxy
// replaying frames) is recognised and dropped client-side — the protocol
// is safe to retry blindly.
//
// The grammar is two verb tables in lease_protocol.cpp, one per message,
// driving the shared util::Dialect codec (util/verb_codec.hpp) that the
// service protocol and the lease journal use too. A table row names the
// verb, the fields its u64 arguments fill in order, and whether free
// text (status JSON, error message) trails them, byte-exact.
//
// Ops and their answers: acquire -> lease|empty|done|error, commit ->
// ok|fenced|done, steal -> lease|empty|done|fenced, status -> status.
//
// Response kinds:
//   lease   a (possibly re-granted) lease: epoch and bounds
//   ok      commit accepted; echoes the current lease bounds so a
//           steal-shrunk end propagates promptly
//   fenced  stale epoch — caller must stop writing
//   empty   nothing to hand out *yet*; retry later
//   done    sweep complete, worker may exit
//   status  server state snapshot (JSON text)
//   error   malformed/unacceptable request (message text)

#include <cstdint>
#include <optional>
#include <string>

namespace oracle::exp {

inline constexpr const char* kLeaseProtoVersion = "v1";

enum class LeaseOp { kAcquire, kCommit, kSteal, kStatus };

struct LeaseRequest {
  std::uint64_t seq = 0;
  LeaseOp op = LeaseOp::kStatus;
  std::uint64_t slot = 0;
  std::uint64_t slot_count = 0;  // acquire only
  std::uint64_t jobs = 0;        // acquire only: total sweep size, validated
  std::uint64_t epoch = 0;
  std::uint64_t frontier = 0;    // commit only
  std::uint64_t wall_us = 0;   // commit only: wall of the last finished job
  std::uint64_t retries = 0;   // commit only: client-side retry counter

  std::string encode() const;
  static std::optional<LeaseRequest> parse(const std::string& payload);
};

enum class LeaseResponseKind {
  kLease,
  kOk,
  kFenced,
  kEmpty,
  kDone,
  kStatus,
  kError
};

struct LeaseResponse {
  std::uint64_t seq = 0;
  LeaseResponseKind kind = LeaseResponseKind::kError;
  std::uint64_t epoch = 0;
  std::uint64_t begin = 0;
  std::uint64_t end = 0;
  std::string text;  // status json / error message

  std::string encode() const;
  static std::optional<LeaseResponse> parse(const std::string& payload);
};

}  // namespace oracle::exp
