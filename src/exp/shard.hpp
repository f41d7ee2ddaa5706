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
//     respawns crashed ones, quarantines a job that keeps killing its
//     worker, and — once every worker has exited and the slot stores cover
//     the sweep — merges them into the canonical store *in job order* via
//     ShardMerger: the merged bytes are identical to what a serial run
//     would have produced.
//   - Stall detection is the lease service's expiry: every request a
//     worker sends is its sign of life, and the service's `status` reply
//     carries each slot's last-contact age and the expiry threshold. The
//     supervisor SIGKILLs a worker whose age exceeds that threshold (the
//     service has expired its slot by then) and respawns it.
//   - A killed/failed run leaves the merge unperformed and every slot
//     store in place; a later --resume skips what the stores already hold
//     and converges to the same byte-identical store.

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/config.hpp"
#include "exp/executor.hpp"

namespace oracle::exp {

/// One worker's identity inside a supervised run: slot `index` of `count`.
struct ShardSpec {
  std::size_t index = 0;
  std::size_t count = 1;

  /// Parse "i/N" (e.g. "2/4"); nullopt on malformed input or i >= N.
  static std::optional<ShardSpec> parse(const std::string& text);

  std::string to_string() const;  ///< "i/N"
};

/// The slot's private JSONL store, "<canonical>.worker<k>of<W>".
std::string worker_store_path(const std::string& canonical_store,
                              std::size_t slot, std::size_t count);

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

  /// Fixed slot expiry of the in-process lease service (--heartbeat-ms):
  /// a worker silent for this long is expired, SIGKILLed and respawned
  /// (counts against max_restarts). 0 = the service's adaptive expiry,
  /// derived online from observed job walls. Must be 0 with lease_server:
  /// a remote service owns its own expiry.
  std::uint32_t heartbeat_ms = 0;

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

  /// Supervisor poll period (reap + expiry checks).
  std::uint32_t poll_ms = 25;

  /// The in-process service does not steal tails smaller than this. The
  /// default of 1 is right for heavy-tailed sweeps (one whale job is worth
  /// a steal round-trip); raise it to turn stealing off.
  std::size_t min_steal_jobs = 1;

  /// When non-empty, the supervisor atomically rewrites this file with a
  /// one-line JSON obs::StatusSnapshot (jobs done/total, rate, ETA,
  /// per-worker lease frontier + last-contact age, the expiry threshold,
  /// steals, restarts) every
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

  /// Stall (sleep, no lease traffic) right before job number N — the
  /// wedged worker the lease service's expiry exists to reap.
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
/// respawning crashed or expired workers up to max_restarts, and
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
