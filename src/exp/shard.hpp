#pragma once
// Crash-safe distributed sharding: run one sweep as N cooperating worker
// *processes* over one canonical result store.
//
// The model:
//   - Every job is assigned to a shard by content hash modulo shard count
//     (shard_of_hash). The slice is a pure function of job identity, so it
//     is stable across invocations, resumes, and hosts.
//   - Each worker process runs its slice into a private per-shard JSONL
//     store (shard_store_path), using the ordinary batch engine — group
//     commit durability included, so a SIGKILLed worker
//     leaves a clean, resumable prefix and can never corrupt any other
//     shard's state.
//   - When every worker has exited cleanly, the parent merges the shard
//     stores (plus any previously merged canonical store) into the
//     canonical store *in job order* via ShardMerger: the merged bytes are
//     identical to what a serial run would have produced.
//   - A killed/failed worker leaves the merge unperformed; a later
//     --resume re-runs only the incomplete shards' incomplete jobs
//     (ShardPlan::incomplete_shards over the per-shard stores)
//     and then merges, converging to the same byte-identical store.
//
// run_sharded_processes() drives the whole protocol by re-executing the
// current binary with `--shard i/N` per worker (self-exec); the pieces
// (ShardSpec, ShardPlan, ShardMerger, spawn_and_wait) are exposed for
// custom launchers — e.g. starting workers on different hosts and merging
// their stores with `oracle_batch aggregate <store>...`.

#include <chrono>
#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "core/config.hpp"
#include "exp/executor.hpp"

namespace oracle::exp {

class JobQueue;

/// One worker's identity inside a sharded run: shard `index` of `count`.
struct ShardSpec {
  std::size_t index = 0;
  std::size_t count = 1;

  /// Parse "i/N" (e.g. "2/4"); nullopt on malformed input or i >= N.
  static std::optional<ShardSpec> parse(const std::string& text);

  std::string to_string() const;  ///< "i/N"
};

/// The distributed sharding rule: which shard of `count` owns this job.
inline std::size_t shard_of_hash(std::uint64_t content_hash,
                                 std::size_t count) noexcept {
  return count <= 1 ? 0 : static_cast<std::size_t>(content_hash % count);
}

/// Per-shard private store path: "<canonical>.shard<i>of<N>".
std::string shard_store_path(const std::string& canonical_store,
                             std::size_t index, std::size_t count);

// ------------------------------------------------------------------------
// Work-stealing lease protocol (the `--steal` mode of `oracle_batch run`).
//
// Instead of the static hash-modulo partition, the parent keeps the whole
// job order [0, N) and hands each of W supervised worker *slots* a
// contiguous job-range lease through a small control file the worker
// re-reads before every job. Three files per slot, all derived from the
// canonical store path:
//   - worker_store_path:     private JSONL store, the slot's durable record
//   - worker_lease_path:     the lease, rewritten atomically by the parent
//   - worker_heartbeat_path: mtime-touched by the worker once per commit
//     group, after the store fsync returns; the parent treats an unchanged
//     mtime as "wedged" and reaps
// When a worker drains its lease it exits 0; the parent then steals the
// unclaimed tail of the most-loaded live lease for it and respawns it. A
// crashed (or heartbeat-reaped) worker is respawned over the same lease —
// its store keeps a durable prefix, so the respawn skips what is
// already done. Steal races can run a job twice on two slots; that is
// harmless: the simulator is deterministic, so the duplicate records are
// byte-identical and the merge dedups them by content hash in job order.
// ------------------------------------------------------------------------

/// Worker-slot file paths, "<canonical>.{worker,lease,hb}<k>of<W>".
std::string worker_store_path(const std::string& canonical_store,
                              std::size_t slot, std::size_t count);
std::string worker_lease_path(const std::string& canonical_store,
                              std::size_t slot, std::size_t count);
std::string worker_heartbeat_path(const std::string& canonical_store,
                                  std::size_t slot, std::size_t count);

/// One contiguous job-range lease [begin, end) over sweep indices. The
/// generation increments on every parent rewrite, so a worker can tell a
/// reissued lease from the one it started with.
struct Lease {
  std::uint64_t generation = 0;
  std::size_t begin = 0;
  std::size_t end = 0;

  bool empty() const noexcept { return begin >= end; }
  std::size_t size() const noexcept { return empty() ? 0 : end - begin; }
};

/// Serialize `lease` into its one-line control file, atomically (tmp +
/// rename): a worker mid-read sees the whole old lease or the whole new
/// one, never a torn line. Writes the checksummed v2 format
/// ("v2 <gen> <begin> <end> <cksum>"). Throws SimulationError on I/O
/// failure.
void write_lease_file(const std::string& path, const Lease& lease);

/// Parse a lease control file (v1 or checksummed v2); nullopt when missing
/// or malformed (a worker treats that as an empty lease and exits
/// cleanly). A file that *exists* but fails to parse — a torn/partial
/// write observed mid-rename on filesystems without atomic rename — bumps
/// the process-wide torn-read counter instead of asserting.
std::optional<Lease> read_lease_file(const std::string& path);

/// Process-wide count of lease files that existed but failed to parse.
std::size_t lease_file_torn_reads() noexcept;

/// The parent's lease bookkeeping: every job position in [0, jobs) belongs
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

  /// The slot's worker exited 0: its current lease is fully executed.
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

/// Decides when a supervised worker is dead from heartbeat observations.
/// Deliberately free of clocks and filesystems: the caller feeds in the
/// observed heartbeat value (an mtime, a counter — anything that changes
/// on progress) plus a steady-clock timestamp, and staleness means "the
/// value has not changed for longer than `timeout`". Comparing change
/// intervals on the caller's steady clock makes the verdict immune to
/// wall-clock skew between parent and filesystem, and makes the class
/// deterministic to unit-test.
class HeartbeatMonitor {
 public:
  using TimePoint = std::chrono::steady_clock::time_point;

  explicit HeartbeatMonitor(std::chrono::nanoseconds timeout)
      : timeout_(timeout) {}

  /// (Re)arm the slot at spawn time: the spawn instant counts as the last
  /// sign of life, so a worker that never writes its first heartbeat still
  /// times out `timeout` after launch.
  void start(std::size_t slot, TimePoint now);

  /// Feed one observation of the slot's heartbeat value (e.g. the
  /// heartbeat file's mtime in ns, or any sentinel for "missing"). A
  /// changed value resets the slot's staleness clock; when it does, the
  /// seconds since the previous change are returned — the inter-progress
  /// interval that feeds the adaptive timeout.
  std::optional<double> observe(std::size_t slot, std::int64_t value,
                                TimePoint now);

  /// Replace the staleness threshold (adaptive mode re-tunes it online).
  void set_timeout(std::chrono::nanoseconds timeout) { timeout_ = timeout; }

  /// True when the slot is armed and its value last changed more than
  /// `timeout` ago. Never true for unarmed slots.
  bool stale(std::size_t slot, TimePoint now) const;

  /// Seconds since the slot's heartbeat value last changed; -1 for slots
  /// that are not armed. Feeds the live status file.
  double age_seconds(std::size_t slot, TimePoint now) const;

  /// Disarm a reaped slot (stale() returns false until the next start).
  void stop(std::size_t slot);

 private:
  struct State {
    std::int64_t value = -1;
    TimePoint last_change{};
    bool armed = false;
  };
  std::unordered_map<std::size_t, State> slots_;
  std::chrono::nanoseconds timeout_;
};

struct AdaptiveTimeoutConfig {
  double multiplier = 8.0;    ///< timeout >= p99 * multiplier
  double floor_s = 3.0;       ///< never reap faster than this
  double cap_s = 600.0;       ///< never wait longer than this
  std::size_t window = 512;   ///< sliding sample window for the p99
};

/// Replaces the fixed --heartbeat-ms guess: a staleness timeout derived
/// from observed job wall times. Seeded from a prior run's
/// BatchReport::job_wall p99 and updated online from per-job samples
/// (committed job walls in server mode, inter-heartbeat intervals in file
/// mode), it tracks the sweep's actual pace:
///
///   timeout = clamp(max(p99 * multiplier, max_sample * 2), floor, cap)
///
/// The max_sample * 2 term is the whale guard — a healthy job twice as
/// slow as the slowest ever seen is still given time — and with *no*
/// samples the timeout is infinite (never reap on pure guesswork).
class AdaptiveTimeout {
 public:
  explicit AdaptiveTimeout(AdaptiveTimeoutConfig config = {})
      : config_(config) {}

  /// Seed from a previous run's job-wall distribution (no-op when empty).
  void seed(const DurationStats& stats);

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

/// The parent's view of a sharded run: which content hashes each shard is
/// responsible for, and which shards still have work left on disk.
class ShardPlan {
 public:
  /// Plan `count` shards over the (seed-derived, unfiltered) queue.
  ShardPlan(const JobQueue& queue, std::size_t count);

  std::size_t count() const noexcept { return hashes_.size(); }
  std::size_t total_jobs() const noexcept { return total_; }

  /// Content hashes owned by shard `i`, in job order.
  const std::vector<std::uint64_t>& shard_hashes(std::size_t i) const {
    return hashes_[i];
  }

  /// Shards that still have jobs not completed by (a) their own shard
  /// store under `canonical_store` or (b) the `already_done`
  /// set (typically the canonical store's hashes). Empty shards are never
  /// reported. This is the crash-detection step of --resume: only these
  /// shards get a worker process.
  std::vector<std::size_t> incomplete_shards(
      const std::string& canonical_store,
      const std::unordered_set<std::uint64_t>& already_done = {}) const;

 private:
  std::vector<std::vector<std::uint64_t>> hashes_;  // [shard][job order]
  std::size_t total_ = 0;
};

/// Outcome of merging shard stores into the canonical store.
struct MergeReport {
  std::size_t stores_read = 0;       ///< input stores that existed
  std::size_t records = 0;           ///< records written to the canonical store
  std::size_t duplicates_dropped = 0;///< same content hash seen twice
  std::size_t corrupt_lines = 0;     ///< unparseable lines skipped
};

/// Merges per-shard (or per-host) JSONL stores into one canonical store in
/// ascending job-index order. Records are copied byte-for-byte and the
/// batch engine writes them deterministically, so the merged store is
/// byte-identical to a serial run over the same sweep. The write is
/// atomic (tmp file + rename): a crash mid-merge leaves the previous
/// canonical store intact and every input store untouched.
class ShardMerger {
 public:
  /// Queue a store for merging; missing files are skipped silently (a
  /// shard with zero planned jobs never creates its store).
  void add_store(const std::string& path);

  /// Merge everything into `canonical_path`; a later single-process
  /// --resume over the canonical store works unchanged. Throws
  /// SimulationError on I/O failure.
  MergeReport merge_to(const std::string& canonical_path);

 private:
  struct Record {
    std::uint64_t job_index = 0;
    std::uint64_t content_hash = 0;
    std::string line;
  };
  std::vector<Record> records_;
  MergeReport report_;
};

/// Exit status of one spawned worker process.
struct WorkerExit {
  std::size_t shard = 0;   ///< shard index the worker ran
  int exit_code = -1;      ///< exit status when it exited normally
  int term_signal = 0;     ///< nonzero when the worker died of a signal
  bool ok() const noexcept { return term_signal == 0 && exit_code == 0; }
};

/// Fork+exec one process per argv vector and wait for all of them.
/// argvs[k] is the full argument vector (argv[0] = executable path) for
/// worker k; `shards[k]` labels it in the result. POSIX only; throws
/// SimulationError elsewhere or when spawning fails.
std::vector<WorkerExit> spawn_and_wait(
    const std::vector<std::vector<std::string>>& argvs,
    const std::vector<std::size_t>& shards);

/// Resolve the path of the currently running executable for self-exec
/// (/proc/self/exe on Linux, falling back to argv0).
std::string self_exec_path(const std::string& argv0);

struct ShardRunOptions {
  std::size_t workers = 2;     ///< worker process count (= shard/slot count)
  std::string out;             ///< canonical JSONL store path (required)
  bool resume = false;         ///< re-run only dead shards' incomplete jobs
  bool keep_shard_stores = false;  ///< keep per-shard stores after merging
  std::uint64_t master_seed = 0;   ///< forwarded to each worker's queue

  /// Self-exec recipe: executable plus the sweep-defining arguments. The
  /// parent appends "--shard i/N" (static) or "--worker-slot k/W" (steal
  /// mode), plus "--resume" when resuming, per worker; the worker rebuilds
  /// the identical sweep, slices it, and runs only its share.
  std::string exec_path;
  std::vector<std::string> worker_args;

  // --- work-stealing supervisor (steal = true) ---

  /// Supervise workers over dynamic job-range leases with work stealing
  /// instead of the fixed hash-modulo partition. Single-host only (the
  /// parent must share a filesystem and PID namespace with its workers);
  /// keep the static `--shard i/N` layout for cross-host runs.
  bool steal = false;

  /// Heartbeat timeout: a worker whose heartbeat file mtime is unchanged
  /// for this long is SIGKILLed and respawned (counts against
  /// max_restarts). 0 disables stall detection (crashes are still caught
  /// by the exit status). Must exceed the longest single job.
  std::uint32_t heartbeat_ms = 0;

  /// Adaptive stall detection (ignores heartbeat_ms): the timeout is
  /// derived online from observed inter-heartbeat intervals via
  /// AdaptiveTimeout, so no per-sweep tuning is needed and a healthy slow
  /// whale job is never reaped. The CLI turns this on by default in steal
  /// mode when --heartbeat-ms is not given.
  bool adaptive_heartbeat = false;
  AdaptiveTimeoutConfig adaptive_config;

  /// Per-slot respawn budget for crashed/stalled workers. Exhausting it
  /// aborts the run (remaining workers are killed, stores kept, merge
  /// skipped) so a --resume can pick up later. It doubles as the
  /// poison-job threshold: a job whose worker dies on it this many times
  /// is quarantined (skipped + recorded) instead of burning the budget.
  std::size_t max_restarts = 2;

  /// With resume: forget previous quarantine verdicts (delete the
  /// quarantine file) so the recorded poison jobs get another chance.
  bool retry_quarantined = false;

  /// Cross-host lease service ("host:port", empty = single-host file
  /// protocol). The parent then only spawns/reaps/merges; leases, steals,
  /// fencing, and stall expiry live in the server (`oracle_batch
  /// serve-leases`), which must already be running and must have been
  /// started over the same sweep with the same slot count.
  std::string lease_server;

  /// Supervisor poll period (reap + heartbeat checks).
  std::uint32_t poll_ms = 25;

  /// Don't steal tails smaller than this. The default of 1 is right for
  /// heavy-tailed sweeps (one whale job is worth a process spawn); raise
  /// it when jobs are uniformly tiny and end-of-run spawns outweigh the
  /// balance gain.
  std::size_t min_steal_jobs = 1;

  /// When non-empty, the supervisor atomically rewrites this file with a
  /// one-line JSON obs::StatusSnapshot (jobs done/total, rate, ETA,
  /// per-worker lease frontier + heartbeat age, steals, restarts) every
  /// `status_interval_ms`, and a final "done"/"failed" snapshot at exit.
  /// Readers never see a torn file (tmp + rename).
  std::string status_path;
  std::uint32_t status_interval_ms = 500;

  /// Trace base path of this run (the CLI's --trace value). The
  /// supervisor's own events are buffered by the process-wide tracer (the
  /// CLI enables it and writes "<trace_path>.parent" afterwards); the
  /// supervisor uses the path only to pre-clean stale per-worker trace
  /// files ("<trace_path>.<k>of<W>") on a fresh run — workers append.
  std::string trace_path;
};

struct ShardRunReport {
  std::size_t planned_jobs = 0;     ///< sweep size (all shards)
  std::size_t shards_launched = 0;  ///< workers actually spawned
  std::size_t shards_skipped = 0;   ///< already complete (resume) or empty
  std::vector<WorkerExit> workers;  ///< one entry per worker process exit
  bool merged = false;              ///< canonical store written
  MergeReport merge;
  std::size_t steals = 0;           ///< leases re-issued to idle workers
  std::size_t restarts = 0;         ///< crashed/stalled workers respawned
  std::size_t quarantined = 0;      ///< poison jobs skipped this run
  std::size_t orphaned = 0;         ///< workers that lost the lease server

  bool ok() const noexcept;
  std::string summary() const;
};

// ---------------------------------------------------------------------
// Poison-job quarantine. When a slot's worker dies repeatedly at the same
// committed frontier, the job at that frontier is the prime suspect;
// after max_restarts deaths (never fewer than two — a single death is
// coincidence, not conviction) it is quarantined — appended (fsynced) to
// "<out>.quarantine", skipped by every worker from then on, and reported
// — instead of burning the whole restart budget and aborting the sweep.
// `--resume --retry-quarantined` clears the file to retry the jobs.
// ---------------------------------------------------------------------

/// "<canonical>.quarantine": one "hash_hex index" line per poisoned job.
std::string quarantine_path(const std::string& canonical_store);

struct QuarantineEntry {
  std::uint64_t content_hash = 0;
  std::size_t job_index = 0;  ///< sweep index, for the report/status file
};

/// Load the quarantine file; missing file or malformed lines (a torn
/// tail) yield an empty/shorter list, never an error.
std::vector<QuarantineEntry> read_quarantine_file(const std::string& path);

/// Append one entry durably (fsynced) so a supervisor crash right after
/// the verdict cannot resurrect the poison job on resume.
void append_quarantine_entry(const std::string& path,
                             const QuarantineEntry& entry);

/// Deterministic fault injection for the supervised-worker process tests:
/// kills or stalls a lease worker on cue, mid-shard. `once_marker` (when
/// non-empty) makes the fault one-shot across respawns — it only fires if
/// the marker file does not exist yet and creates it when firing, so the
/// respawned worker runs clean and the test converges.
struct ShardTestHooks {
  static constexpr std::size_t kOff = ~std::size_t{0};

  /// Die right before job number N (0-based count of jobs this process
  /// has started): the first N jobs are durably committed, then the
  /// worker vanishes without any cleanup.
  std::size_t die_after_n_jobs = kOff;
  bool die_with_sigkill = false;  ///< raise(SIGKILL) instead of _exit(1)

  /// Stall (sleep, no heartbeat) right before job number N — the wedged
  /// worker the heartbeat monitor exists to reap.
  std::size_t stall_after_n_jobs = kOff;
  std::uint32_t stall_ms = 60'000;

  /// Die right before running the job with *sweep index* N — a
  /// deterministic poison job that kills whichever worker picks it up,
  /// every time (unless once_marker limits it): the quarantine scenario.
  std::size_t die_on_job_index = kOff;

  std::string once_marker;  ///< one-shot guard file ("" = fire every time)
};

/// Worker side of the lease protocol (what `oracle_batch run
/// --worker-slot k/W` executes).
struct LeaseWorkerOptions {
  std::string canonical_out;   ///< canonical store (slot files derive from it)
  std::size_t slot = 0;        ///< this worker's slot k
  std::size_t slot_count = 1;  ///< total slots W (sibling-store discovery)
  bool merge_resume = false;   ///< also skip jobs already merged into the
                               ///< canonical store (parent ran --resume)
  std::uint64_t master_seed = 0;
  std::size_t threads = 1;     ///< executor threads inside this worker
  ShardTestHooks hooks;        ///< fault injection (tests only)

  // --- cross-host lease service mode (lease_server non-empty) ---

  /// Lease server address ("host:port"); empty keeps the file protocol.
  std::string lease_server;

  /// Per-request deadline and retry/backoff budget for the lease client.
  /// Exhausting retry_budget consecutive failures orphans the worker: it
  /// keeps its committed prefix durable and exits with the distinct
  /// orphaned status instead of spinning forever.
  std::uint32_t op_timeout_ms = 2'000;
  std::size_t retry_budget = 10;
  std::uint32_t backoff_base_ms = 50;
  std::uint32_t backoff_cap_ms = 2'000;
};

/// Exit status a lease-client worker process uses when orphaned (the
/// server stayed unreachable past the retry budget). Distinct from crash
/// codes so the launcher can tell "server gone, committed prefix durable,
/// do not respawn" from "worker bug, respawn".
constexpr int kOrphanedExitCode = 3;

/// Outcome of a lease-service worker (run_lease_client_worker).
struct LeaseWorkerReport {
  BatchReport batch;          ///< aggregate over every lease it ran
  std::size_t leases_run = 0; ///< leases acquired/stolen and executed
  bool orphaned = false;      ///< lost the server past the retry budget
  bool fenced = false;        ///< a stale epoch stopped this worker
  std::uint64_t retries = 0;    ///< client-side request retries
  std::uint64_t reconnects = 0; ///< TCP reconnects
};

/// Run this slot's current lease: read the lease file, slice the queue to
/// [begin, end), and execute into the slot's private store — always in
/// append/skip-completed mode (the supervisor pre-cleans slot files on a
/// fresh run), re-reading the lease before every job so a parent-side
/// shrink stops the worker at the new end. An empty or missing lease
/// still creates a valid empty store and reports 0 jobs. Returns the
/// slice's batch report.
BatchReport run_lease_worker(const std::vector<core::ExperimentConfig>& configs,
                             const LeaseWorkerOptions& options);

/// The lease-service flavour of run_lease_worker (options.lease_server
/// set): instead of re-reading a lease file, the worker acquires fenced
/// leases from the server and loops — run the lease, commit the frontier
/// per job (the commit doubles as the heartbeat), then ask for more work
/// until the server says `done`. A `fenced` verdict stops the worker
/// mid-lease (its durable records are harmless duplicates); an
/// unreachable server past the retry budget orphans it: the committed
/// prefix is already fsynced, the report says orphaned, and the caller
/// exits with the distinct orphaned status so `--resume` reshapes leases
/// around it.
LeaseWorkerReport run_lease_client_worker(
    const std::vector<core::ExperimentConfig>& configs,
    const LeaseWorkerOptions& options);

/// The parent side of `oracle_batch run --workers N`: plan shards over the
/// sweep, spawn one self-exec worker per incomplete shard, wait, and — iff
/// every worker exited cleanly — merge the shard stores into the canonical
/// store and (unless keep_shard_stores) delete them. On any worker
/// failure the merge is skipped so a later resume sees every shard's
/// surviving state. Throws SimulationError on setup errors (empty sweep,
/// missing out path, spawn failure).
///
/// With options.steal, the fork-join topology becomes a supervisor: the
/// parent partitions the job order into leases (clamped to one worker per
/// job), spawns one lease worker per slot, and loops — reaping exits,
/// re-leasing the unclaimed tail of the most-loaded live lease to each
/// drained worker (work stealing), SIGKILLing heartbeat-stale workers,
/// and respawning crashed ones up to max_restarts. The merge and its
/// byte-identity guarantee are unchanged: worker stores hold arbitrary
/// job subsets (possibly overlapping after steal races) and fold into the
/// canonical store in job order with content-hash dedup.
ShardRunReport run_sharded_processes(
    const std::vector<core::ExperimentConfig>& configs,
    const ShardRunOptions& options);

}  // namespace oracle::exp
