#pragma once
// Crash-safe distributed sweeps: run one sweep as N cooperating worker
// *processes* over one canonical result store.
//
// The model (`oracle_batch run --workers N`, run_supervisor):
//   - A lease service owns the job order [0, jobs) and hands each of the
//     W worker *slots* fenced, contiguous job-range leases. It is either
//     an in-process exp::LeaseService on loopback (single-host runs) or a
//     remote `oracle_batch serve-leases` named by --lease-server.
//   - Each worker is a self-exec'd lease client (run_lease_client_worker,
//     exp/lease_worker.hpp): it runs its lease into a private per-slot
//     JSONL store with the ordinary executor, commits its durable frontier
//     to the service once per commit group (after the store fsync), and
//     asks for more work when the lease drains — the service then steals
//     the unclaimed tail of the most-loaded live lease for it.
//   - The parent keeps process custody: it spawns one worker per slot,
//     respawns crashed ones, quarantines a job that keeps killing its
//     worker, and — once every worker has exited and the slot stores cover
//     the sweep — merges them into the canonical store *in job order* via
//     StoreMerger: the merged bytes are identical to what a serial run
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
#include <string>
#include <unordered_set>
#include <vector>

#include "core/config.hpp"
#include "exp/lease_worker.hpp"

namespace oracle::exp {

/// Outcome of merging slot stores into the canonical store.
struct MergeReport {
  std::size_t stores_read = 0;       ///< input stores that existed
  std::size_t records = 0;           ///< records written to the canonical store
  std::size_t duplicates_dropped = 0;///< same content hash seen twice
  std::size_t corrupt_lines = 0;     ///< unparseable lines skipped
};

/// Merges per-slot (or per-host) JSONL stores into one canonical store in
/// ascending job-index order. Records are copied byte-for-byte and the
/// batch engine writes them deterministically, so the merged store is
/// byte-identical to a serial run over the same sweep. The write is
/// atomic (tmp file + rename): a crash mid-merge leaves the previous
/// canonical store intact and every input store untouched.
class StoreMerger {
 public:
  /// Queue a store for merging; missing files are skipped silently (a
  /// slot that never ran a job never creates its store).
  void add_store(const std::string& path);

  /// True when a queued record carries `hash` (before merge_to).
  bool holds(std::uint64_t hash) const { return hashes_.contains(hash); }

  /// Merge everything into `canonical_path`, once; a later single-process
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
  std::unordered_set<std::uint64_t> hashes_;  ///< of records_
  MergeReport report_;
};

/// Exit status of one spawned worker process.
struct WorkerExit {
  std::size_t slot = 0;    ///< slot the worker ran
  int exit_code = -1;      ///< exit status when it exited normally
  int term_signal = 0;     ///< nonzero when the worker died of a signal
  bool ok() const noexcept { return term_signal == 0 && exit_code == 0; }
};

/// Resolve the path of the currently running executable for self-exec
/// (/proc/self/exe on Linux, falling back to argv0).
std::string self_exec_path(const std::string& argv0);

struct SupervisorOptions {
  std::size_t workers = 2;     ///< worker process count (= slot count)
  std::string out;             ///< canonical JSONL store path (required)
  bool resume = false;         ///< skip what the stores already hold
  bool keep_slot_stores = false;   ///< keep per-slot stores after merging
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
  std::uint32_t expiry_ms = 0;

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

  /// The in-process service does not steal tails smaller than this. The
  /// default of 1 is right for heavy-tailed sweeps (one whale job is worth
  /// a steal round-trip); raise it to turn stealing off.
  std::size_t min_steal_jobs = 1;

  /// When non-empty, the supervisor atomically rewrites this file with a
  /// one-line JSON obs::StatusSnapshot (jobs done/total, rate, ETA,
  /// per-worker lease frontier + last-contact age, the expiry threshold,
  /// steals, restarts) every obs::kStatusInterval, and a final
  /// "done"/"failed" snapshot at exit. Readers never see a torn file
  /// (tmp + rename).
  std::string status_path;

  /// Trace base path of this run (the CLI's --trace value). The
  /// supervisor's own events are buffered by the process-wide tracer (the
  /// CLI enables it and writes "<trace_path>.parent" afterwards); the
  /// supervisor uses the path only to pre-clean stale per-worker trace
  /// files ("<trace_path>.<k>of<W>") on a fresh run — workers append.
  std::string trace_path;
};

struct SupervisorReport {
  std::size_t planned_jobs = 0;     ///< sweep size
  std::size_t slots = 0;            ///< worker slots
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

/// The parent side of `oracle_batch run --workers N`: one supervisor over
/// lease-client workers. It starts an in-process LeaseService unless
/// options.lease_server names a remote one, spawns one self-exec worker
/// per slot (clamped to one per job), and loops — reaping exits,
/// respawning crashed or expired workers up to max_restarts, and
/// quarantining a job that keeps killing its worker (the suspect is the
/// dead slot's frontier as the service's status op reports it). Once every
/// worker has exited and the slot stores cover the sweep, it merges them
/// into the canonical store in job order with content-hash dedup and
/// (unless keep_slot_stores) deletes them; otherwise the merge is skipped
/// and every store stays for a later --resume. Throws SimulationError on
/// setup errors (empty sweep, missing out path, spawn failure).
SupervisorReport run_supervisor(
    const std::vector<core::ExperimentConfig>& configs,
    const SupervisorOptions& options);

}  // namespace oracle::exp
