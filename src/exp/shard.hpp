#pragma once
// Crash-safe distributed sweeps: run one sweep as N cooperating worker
// *processes* over one canonical result store.
//
// The model (`oracle_batch run --workers N`, run_sharded_processes):
//   - A lease service owns the job order [0, jobs) and hands each of the
//     W worker *slots* fenced, contiguous job-range leases. It is either
//     an in-process exp::LeaseService on loopback (single-host runs) or a
//     remote `oracle_batch serve-leases` named by --lease-server.
//   - Each worker is a self-exec'd lease client (run_lease_client_worker):
//     it runs its lease into a private per-slot JSONL store with the
//     ordinary executor, commits its durable frontier to the service once
//     per commit group (after the store fsync), and asks for more work
//     when the lease drains — the service then steals the unclaimed tail
//     of the most-loaded live lease for it.
//   - The parent keeps process custody: it spawns one worker per slot,
//     respawns crashed or heartbeat-stale ones, quarantines a job that
//     keeps killing its worker, and — once every worker has exited and the
//     slot stores cover the sweep — merges them into the canonical store
//     *in job order* via ShardMerger: the merged bytes are identical to
//     what a serial run would have produced.
//   - A killed/failed run leaves the merge unperformed and every slot
//     store in place; a later --resume skips what the stores already hold
//     and converges to the same byte-identical store.
//
// The standalone `--shard i/N` worker (JobQueue::retain_shard over
// shard_of_hash, into shard_store_path) stays available for custom
// cross-host launchers that merge with `oracle_batch aggregate`.

#include <chrono>
#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/config.hpp"
#include "exp/executor.hpp"

namespace oracle::exp {

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

/// Worker-slot file paths, "<canonical>.{worker,hb}<k>of<W>": the slot's
/// private JSONL store, and the heartbeat file the worker mtime-touches
/// once per commit group (after the store fsync returns) and while it
/// waits for work; the parent treats an unchanged mtime as "wedged" and
/// reaps.
std::string worker_store_path(const std::string& canonical_store,
                              std::size_t slot, std::size_t count);
std::string worker_heartbeat_path(const std::string& canonical_store,
                                  std::size_t slot, std::size_t count);

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
/// (commit-group walls in the lease service, inter-heartbeat intervals in
/// the supervisor), it tracks the sweep's actual pace:
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

/// Resolve the path of the currently running executable for self-exec
/// (/proc/self/exe on Linux, falling back to argv0).
std::string self_exec_path(const std::string& argv0);

struct ShardRunOptions {
  std::size_t workers = 2;     ///< worker process count (= slot count)
  std::string out;             ///< canonical JSONL store path (required)
  bool resume = false;         ///< skip what the stores already hold
  bool keep_shard_stores = false;  ///< keep per-slot stores after merging
  std::uint64_t master_seed = 0;   ///< forwarded to each worker's queue

  /// Self-exec recipe: executable plus the sweep-defining arguments. The
  /// parent appends "--worker-slot k/W --lease-server H:P", plus
  /// "--resume" when resuming, per worker; the worker rebuilds the
  /// identical sweep and runs whatever leases the service grants it.
  std::string exec_path;
  std::vector<std::string> worker_args;

  /// Heartbeat timeout: a worker whose heartbeat file mtime is unchanged
  /// for this long is SIGKILLed and respawned (counts against
  /// max_restarts). 0 disables stall detection (crashes are still caught
  /// by the exit status). Must exceed the longest single job.
  std::uint32_t heartbeat_ms = 0;

  /// Adaptive stall detection (ignores heartbeat_ms): the timeout is
  /// derived online from observed inter-heartbeat intervals via
  /// AdaptiveTimeout, so no per-sweep tuning is needed and a healthy slow
  /// whale job is never reaped. The CLI turns this on by default when
  /// --heartbeat-ms is not given.
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

  /// Remote lease service ("host:port"): an `oracle_batch serve-leases`
  /// that must already be running over the same sweep with the same slot
  /// count. Empty = the parent runs an in-process LeaseService on
  /// 127.0.0.1 (no journal: the stores are the durable record) for the
  /// lifetime of the run.
  std::string lease_server;

  /// Supervisor poll period (reap + heartbeat checks).
  std::uint32_t poll_ms = 25;

  /// The in-process service does not steal tails smaller than this. The
  /// default of 1 is right for heavy-tailed sweeps (one whale job is worth
  /// a steal round-trip); raise it to turn stealing off.
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
  std::size_t planned_jobs = 0;     ///< sweep size
  std::size_t shards_launched = 0;  ///< worker slots
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
/// --worker-slot k/W --lease-server H:P` executes).
struct LeaseWorkerOptions {
  std::string canonical_out;   ///< canonical store (slot files derive from it)
  std::size_t slot = 0;        ///< this worker's slot k
  std::size_t slot_count = 1;  ///< total slots W (sibling-store discovery)
  bool merge_resume = false;   ///< also skip jobs already merged into the
                               ///< canonical store (parent ran --resume)
  std::uint64_t master_seed = 0;
  std::size_t threads = 1;     ///< executor threads inside this worker
  ShardTestHooks hooks;        ///< fault injection (tests only)

  /// Lease server address ("host:port", required).
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

/// The worker loop: acquire a fenced lease from the server, run it into
/// the slot's private store (append + skip what this slot, its siblings,
/// the canonical store on resume and the quarantine file already cover)
/// with `threads` executor threads, commit the durable frontier once per
/// commit group after the store fsync (the commit reply carries the
/// possibly steal-shrunk lease end), then ask for more work until the
/// server says `done`. A `fenced` verdict stops the worker mid-lease (its
/// durable records are harmless duplicates); an unreachable server past
/// the retry budget orphans it: the committed prefix is already fsynced,
/// the report says orphaned, and the caller exits with the distinct
/// orphaned status so `--resume` reshapes leases around it.
LeaseWorkerReport run_lease_client_worker(
    const std::vector<core::ExperimentConfig>& configs,
    const LeaseWorkerOptions& options);

/// The parent side of `oracle_batch run --workers N`: one supervisor over
/// lease-client workers. It starts an in-process LeaseService unless
/// options.lease_server names a remote one, spawns one self-exec worker
/// per slot (clamped to one per job), and loops — reaping exits,
/// respawning crashed or heartbeat-stale workers up to max_restarts, and
/// quarantining a job that keeps killing its worker (the suspect is the
/// dead slot's frontier as the service's status op reports it). Once every
/// worker has exited and the slot stores cover the sweep, it merges them
/// into the canonical store in job order with content-hash dedup and
/// (unless keep_shard_stores) deletes them; otherwise the merge is skipped
/// and every store stays for a later --resume. Throws SimulationError on
/// setup errors (empty sweep, missing out path, spawn failure).
ShardRunReport run_sharded_processes(
    const std::vector<core::ExperimentConfig>& configs,
    const ShardRunOptions& options);

}  // namespace oracle::exp
