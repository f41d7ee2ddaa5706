#pragma once
// exp::LeaseService — the lease owner of every multi-process sweep: a
// small single-threaded TCP server that owns the LeaseTable and hands out
// fenced job-range leases over the versioned frame protocol in
// lease_protocol.hpp. `oracle_batch serve-leases` runs it for cross-host
// fleets; a local `oracle_batch run --workers N` runs one in-process on
// loopback, without a journal.
//
// Fault model, in the order things die in practice:
//   - Worker crashes: its slot store keeps a durable prefix; the respawned
//     worker re-acquires, gets a fresh fencing epoch, and resumes. A
//     reaped-then-resurrected worker still holding the old epoch gets
//     `fenced` on every commit — it can never clobber a stolen range.
//   - Worker wedges: the adaptive timeout (seeded/updated online from
//     committed job walls) expires the slot, bumps its epoch (fencing the
//     wedged process), and the next idle worker takes over the
//     uncommitted tail of its lease.
//   - Server crashes: with a journal, every state transition was
//     journaled (fsynced, write-ahead) before it was applied or
//     acknowledged; restarting the server replays the journal — a torn
//     final record is skipped, like the trace/JSONL stores — and live
//     workers reconnect and continue under their existing epochs without
//     losing a job.
//   - Slow or half-sent peers: every request is answered inline on one
//     util::FrameServer poll loop. A peer that leaves a frame half-sent
//     for 250 ms or takes no reply bytes for 2 s is evicted, never stalls
//     others (LeaseServiceStats::evicted).
//   - Network flakes: requests are idempotent-by-design (acquire/steal
//     re-grant, commit is monotonic max, responses echo the client seq so
//     duplicates are discarded), so the client retries blindly under
//     backoff.
//
// The server never touches the result stores: it tracks *index ranges*
// and fencing epochs only, so one instance can coordinate workers on any
// number of hosts; byte-identical convergence still comes from the
// deterministic simulator + content-hash dedup at merge time.

#include <atomic>
#include <cstdint>
#include <string>

#include "exp/shard.hpp"
#include "util/net.hpp"

namespace oracle::exp {

struct LeaseServiceOptions {
  util::HostPort listen{"127.0.0.1", 0};  ///< port 0 = ephemeral (see port())
  std::size_t jobs = 0;   ///< sweep size; acquire requests must match
  std::size_t slots = 1;  ///< worker slot count; acquire requests must match
  std::uint64_t master_seed = 0;  ///< recorded in the journal init line

  /// Write-ahead journal: every state transition is appended + fsynced
  /// here before it takes effect. If the file already holds a matching
  /// init record, the server *replays* it and resumes the run; an init
  /// mismatch (different sweep shape) is a hard error — remove the journal
  /// to start over. `serve-leases` requires one; only the in-process
  /// service of a local `run --workers N` leaves it empty (no journal).
  std::string journal_path;

  /// Optional obs::StatusSnapshot file, atomically rewritten every
  /// status_interval_ms (phase "serving", per-slot lease/frontier/epoch
  /// liveness, fenced + retry counters).
  std::string status_path;
  std::uint32_t status_interval_ms = 500;

  /// Adaptive per-slot expiry: a granted, undrained slot with no message
  /// for longer than the adaptive timeout is expired (epoch bumped — the
  /// fencing event). Disabled until enough job-wall samples arrive.
  AdaptiveTimeoutConfig timeout;

  /// Don't shave tails smaller than this off live leases.
  std::size_t min_steal_jobs = 1;

  /// How long to keep answering `done` after the sweep completes, so
  /// every worker hears the verdict instead of timing out.
  std::uint32_t linger_ms = 1500;
};

struct LeaseServiceStats {
  std::size_t requests = 0;
  std::size_t grants = 0;        ///< acquire grants (fresh epochs issued)
  std::size_t steals = 0;        ///< live-lease tails re-leased
  std::size_t reassigns = 0;     ///< expired leases taken over
  std::size_t expirations = 0;   ///< slots expired by the adaptive timeout
  std::size_t fenced = 0;        ///< stale-epoch requests rejected
  std::size_t bad_requests = 0;  ///< unparseable/invalid frames
  std::size_t evicted = 0;  ///< connections dropped for stalling a frame
  std::size_t journal_records = 0;         ///< records appended this run
  std::size_t replayed_records = 0;        ///< records applied at startup
  std::size_t torn_journal_records = 0;    ///< malformed lines skipped
  std::uint64_t client_retries = 0;  ///< sum of client-reported retry counts
  bool completed = false;            ///< every lease drained
};

class LeaseService {
 public:
  explicit LeaseService(LeaseServiceOptions options);
  ~LeaseService();

  LeaseService(const LeaseService&) = delete;
  LeaseService& operator=(const LeaseService&) = delete;

  /// Bind + listen + replay the journal. Throws SimulationError on bind
  /// failure or a journal/init mismatch.
  void start();

  /// The actually-bound port (after start(); resolves listen.port == 0).
  std::uint16_t port() const;

  /// Serve until the sweep completes (then linger linger_ms) or stop() is
  /// called. Returns the final stats. Call start() first.
  LeaseServiceStats run();

  /// Thread-safe and async-signal-safe shutdown request (serve-leases
  /// installs it as the SIGINT/SIGTERM action; a local run calls it when
  /// its workers are done): wakes run(), which returns at once.
  void stop();

  const LeaseServiceStats& stats() const { return stats_; }

 private:
  struct Impl;
  Impl* impl_;
  LeaseServiceOptions options_;
  LeaseServiceStats stats_;
  std::atomic<bool> stop_{false};
};

}  // namespace oracle::exp
