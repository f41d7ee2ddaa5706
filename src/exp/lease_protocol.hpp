#pragma once
// Wire protocol for the lease service. Frames are length-prefixed
// (util::send_frame); payloads are versioned space-separated text so the
// journal, traces, and a human with netcat all read the same dialect.
//
//   request  := "v1 <seq> <op> ..."
//   response := "v1 <seq> <kind> ..."
//
// `seq` is chosen by the client and echoed verbatim in the response, so a
// duplicated or stale response (retry racing the original, a proxy
// replaying frames) is recognised and dropped client-side — the protocol
// is safe to retry blindly.
//
// Ops:
//   acquire  <slot> <slot_count> <jobs>            -> lease|empty|done|error
//   commit   <slot> <epoch> <frontier> <wall_us> <retries>
//                                                  -> ok|fenced|done
//   steal    <slot> <epoch>                        -> lease|empty|done|fenced
//   status                                         -> status <json>
//
// Response kinds:
//   lease  <epoch> <begin> <end>   a (possibly re-granted) lease
//   ok     <begin> <end>           accepted; echoes current lease bounds so
//                                  a steal-shrunk end propagates promptly
//   fenced                         stale epoch — caller must stop writing
//   empty                          nothing to hand out *yet*; retry later
//   done                           sweep complete, worker may exit
//   status <json>                  server state snapshot
//   error  <message>               malformed/unacceptable request

#include <cstdint>
#include <optional>
#include <string>

namespace oracle::exp {

inline constexpr const char* kLeaseProtoVersion = "v1";

enum class LeaseOp { kAcquire, kCommit, kSteal, kStatus };

struct LeaseRequest {
  std::uint64_t seq = 0;
  LeaseOp op = LeaseOp::kStatus;
  std::size_t slot = 0;
  std::size_t slot_count = 0;  // acquire only
  std::size_t jobs = 0;        // acquire only: total sweep size, validated
  std::uint64_t epoch = 0;
  std::size_t frontier = 0;    // commit only
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
  std::size_t begin = 0;
  std::size_t end = 0;
  std::string text;  // status json / error message

  std::string encode() const;
  static std::optional<LeaseResponse> parse(const std::string& payload);
};

}  // namespace oracle::exp
