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
//   - Worker wedges: the expiry threshold (adaptive from committed job
//     walls, or fixed) expires the silent slot, bumps its epoch (fencing
//     the wedged process), and the next idle worker takes over the
//     uncommitted tail of its lease. The supervisor reads the same
//     last-contact age and threshold from `status` and SIGKILLs the
//     wedged process.
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
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "util/net.hpp"

namespace oracle::exp {

/// One contiguous job-range lease [begin, end) over sweep indices. The
/// generation increments on every steal or reassignment that moves it.
struct Lease {
  std::uint64_t generation = 0;
  std::size_t begin = 0;
  std::size_t end = 0;

  bool empty() const noexcept { return begin >= end; }
  std::size_t size() const noexcept { return empty() ? 0 : end - begin; }
};

/// The lease service's bookkeeping: every job position in [0, jobs) belongs
/// to exactly one lease — live (a worker owns it) or retired (drained).
/// Steals move the tail of a live lease onto a drained slot; the class
/// never creates overlap, so the property test can assert the partition
/// invariant after any steal sequence.
class LeaseTable {
 public:
  /// Balanced contiguous partition of [0, jobs) over `slots` leases (slot
  /// i gets [i*jobs/slots, (i+1)*jobs/slots)). slots >= 1.
  LeaseTable(std::size_t jobs, std::size_t slots);

  std::size_t jobs() const noexcept { return jobs_; }
  std::size_t slots() const noexcept { return slots_.size(); }
  const Lease& lease(std::size_t slot) const { return slots_[slot].current; }
  bool drained(std::size_t slot) const { return slots_[slot].drained; }

  /// The slot's worker drained its lease: it is fully executed.
  void mark_drained(std::size_t slot);
  bool all_drained() const;

  /// Move [split, victim.end) from the live `victim` lease to the drained
  /// `thief` slot; both generations bump. Returns the thief's new lease,
  /// or nullopt when the steal is invalid (victim drained or empty split
  /// range, thief still live, split outside (victim.begin, victim.end)).
  std::optional<Lease> steal(std::size_t victim, std::size_t thief,
                             std::size_t split);

  /// Take over a dead/expired victim's lease: [begin, frontier) is
  /// durably committed and retires; the drained `thief` slot gets
  /// [frontier, end); the victim is left with an empty, drained lease
  /// (its fencing epoch was bumped by the caller, so a resurrected victim
  /// can no longer commit into the moved range). frontier == end retires
  /// the whole lease (everything was committed) and returns nullopt with
  /// the victim drained; other invalid inputs (victim drained, thief
  /// live, frontier outside [begin, end]) return nullopt with no change.
  std::optional<Lease> reassign(std::size_t victim, std::size_t thief,
                                std::size_t frontier);

  /// Partition invariant: every job position [0, jobs) is covered by
  /// exactly one live or retired lease. Always true by construction; the
  /// property tests drive random steal sequences against it.
  bool partitions_queue() const;

 private:
  struct Slot {
    Lease current;
    bool drained = false;
  };
  std::vector<Slot> slots_;
  /// Drained ranges a thief abandoned when it took a new lease.
  std::vector<std::pair<std::size_t, std::size_t>> retired_;
  std::size_t jobs_ = 0;
};

struct AdaptiveTimeoutConfig {
  double multiplier = 8.0;    ///< timeout >= p99 * multiplier
  double floor_s = 3.0;       ///< never reap faster than this
  std::size_t window = 512;   ///< sliding sample window for the p99
};

/// The adaptive expiry threshold of the lease service: a staleness
/// timeout derived online from the commit-group walls workers report, so
/// it tracks the sweep's actual pace:
///
///   timeout = clamp(max(p99 * multiplier, max_sample * 2), floor, cap)
///
/// The max_sample * 2 term is the whale guard — a healthy job twice as
/// slow as the slowest ever seen is still given time — and with *no*
/// samples the timeout is infinite (never expire on pure guesswork).
class AdaptiveTimeout {
 public:
  static constexpr double kCapSeconds = 600.0;  ///< the formula's cap

  explicit AdaptiveTimeout(AdaptiveTimeoutConfig config = {})
      : config_(config) {}

  /// Feed one observed job wall / progress interval (<= 0 is ignored).
  void record(double seconds);

  std::size_t samples() const noexcept { return count_; }

  /// Current staleness threshold in seconds; +infinity until the first
  /// sample arrives.
  double timeout_seconds() const;

 private:
  AdaptiveTimeoutConfig config_;
  std::vector<double> window_;   ///< ring buffer of recent samples
  std::size_t next_ = 0;         ///< ring write position
  std::size_t count_ = 0;        ///< total samples ever recorded
  double max_sample_ = 0.0;      ///< all-time max (whale guard)
};

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
  /// obs::kStatusInterval (phase "serving", per-slot lease/frontier/epoch
  /// liveness, fenced + retry counters).
  std::string status_path;

  /// Per-slot expiry: an undrained slot with no message for longer than
  /// the expiry threshold is expired (epoch bumped — the fencing event).
  /// The threshold is `expiry_ms` when nonzero (a local run's
  /// --heartbeat-ms), else the adaptive timeout, which stays disabled
  /// until the first job-wall sample arrives. The status reply carries it
  /// as `expiry_s`, and a supervisor SIGKILLs any worker whose slot's
  /// contact age exceeds it: this is the only liveness clock of a run.
  AdaptiveTimeoutConfig timeout;
  std::uint32_t expiry_ms = 0;

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
  std::size_t expirations = 0;   ///< slots expired by the expiry threshold
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
