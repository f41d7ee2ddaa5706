#pragma once
// exp::LeaseClient — the worker side of the lease service. Wraps every
// request in a per-call deadline plus jittered exponential backoff with
// an explicit retry budget; reconnects transparently; filters stale or
// duplicated responses by the echoed sequence number. Exhausting the
// budget on *consecutive* failures throws LeaseOrphanedError — the
// caller's cue to finish its committed prefix and exit with the
// distinct orphaned status.

#include <cstdint>
#include <optional>
#include <string>

#include "exp/lease_protocol.hpp"
#include "util/error.hpp"
#include "util/net.hpp"

namespace oracle::exp {

/// The server stayed unreachable past the retry budget.
struct LeaseOrphanedError : SimulationError {
  using SimulationError::SimulationError;
};

struct LeaseClientOptions {
  util::HostPort server;
  std::size_t slot = 0;
  std::size_t slot_count = 1;
  std::size_t jobs = 0;  ///< sweep size, validated by the server on acquire

  std::uint32_t op_timeout_ms = 2'000;  ///< per-attempt deadline
  std::size_t retry_budget = 10;        ///< consecutive failures → orphaned
  std::uint32_t backoff_base_ms = 50;
  std::uint32_t backoff_cap_ms = 2'000;
  std::uint64_t jitter_seed = 1;  ///< deterministic backoff jitter (tests)
};

/// A fenced lease as granted by the server.
struct LeaseGrant {
  std::uint64_t epoch = 0;
  std::size_t begin = 0;
  std::size_t end = 0;
};

class LeaseClient {
 public:
  explicit LeaseClient(LeaseClientOptions options);
  ~LeaseClient();

  LeaseClient(const LeaseClient&) = delete;
  LeaseClient& operator=(const LeaseClient&) = delete;

  /// Acquire this slot's current lease (a fresh fencing epoch is issued;
  /// any previous holder of the slot is fenced). nullopt = the sweep is
  /// done. An `empty` verdict (nothing to hand out yet) is retried
  /// internally under backoff until the server says lease or done.
  std::optional<LeaseGrant> acquire();

  /// Ask for more work after draining a lease (the steal op). Same
  /// return/retry contract as acquire().
  std::optional<LeaseGrant> next_lease(std::uint64_t drained_epoch);

  enum class CommitResult { kOk, kFenced, kDone };

  /// Commit the durable frontier; every request doubles as the slot's
  /// sign of life for the service's expiry clock.
  /// `wall_us` is the wall time of the job just finished (0 = none);
  /// kOk updates *current_end to the possibly steal-shrunk lease end.
  CommitResult commit(std::uint64_t epoch, std::size_t frontier,
                      std::uint64_t wall_us, std::size_t* current_end);

  /// Server state snapshot (the raw status JSON); nullopt on error
  /// (status is best-effort: it never throws LeaseOrphanedError).
  std::optional<std::string> status();

  std::uint64_t retries() const noexcept { return retries_; }
  std::uint64_t reconnects() const noexcept { return reconnects_; }
  std::uint64_t fenced() const noexcept { return fenced_; }

 private:
  /// One reliable round-trip: connect if needed, send, await the matching
  /// seq. Retries under backoff; throws LeaseOrphanedError past budget.
  LeaseResponse call(LeaseRequest req);
  bool attempt(const LeaseRequest& req, LeaseResponse* rsp);
  void backoff_sleep(std::size_t attempt);
  std::optional<LeaseGrant> work_request(LeaseRequest req);

  LeaseClientOptions options_;
  util::Socket conn_;
  std::uint64_t next_seq_ = 1;
  std::uint64_t retries_ = 0;
  std::uint64_t reconnects_ = 0;
  std::uint64_t fenced_ = 0;
  std::uint64_t jitter_state_ = 1;
};

}  // namespace oracle::exp
