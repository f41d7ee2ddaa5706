#pragma once
// The lease worker: one worker process of a supervised multi-process
// sweep (`oracle_batch run --worker-slot k/W --lease-server H:P`, spawned
// by exp::run_supervisor — see exp/supervisor.hpp for the whole model).
//
// A worker owns slot k of W. It asks the lease service for a fenced,
// contiguous job-range lease, runs it into the slot's private JSONL store
// with the ordinary executor, commits its durable frontier to the service
// once per commit group (after the store fsync), and asks for more work
// when the lease drains — the service then hands it an expired lease or
// the unclaimed tail of the most-loaded live one — until the service says
// `done`.

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/config.hpp"
#include "exp/executor.hpp"
#include "exp/lease_client.hpp"

namespace oracle::exp {

/// One worker's identity inside a supervised run: slot `index` of `count`.
struct WorkerSlot {
  std::size_t index = 0;
  std::size_t count = 1;

  /// Parse "k/W" (e.g. "2/4"); nullopt on malformed input or k >= W.
  static std::optional<WorkerSlot> parse(const std::string& text);
};

/// The slot's private JSONL store, "<canonical>.worker<k>of<W>".
std::string worker_store_path(const std::string& canonical_store,
                              std::size_t slot, std::size_t count);

// ---------------------------------------------------------------------
// Poison-job quarantine. When a slot's worker dies repeatedly at the same
// committed frontier, the job at that frontier is the prime suspect;
// after max_restarts deaths (never fewer than two — a single death is
// coincidence, not conviction) the supervisor quarantines it — appended
// (fsynced) to "<out>.quarantine", skipped by every worker from then on,
// and reported — instead of burning the whole restart budget and aborting
// the sweep. `--resume --retry-quarantined` clears the file to retry the
// jobs.
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
/// kills or stalls a lease worker on cue, mid-lease. `once_marker` (when
/// non-empty) makes the fault one-shot across respawns — it only fires if
/// the marker file does not exist yet and creates it when firing, so the
/// respawned worker runs clean and the test converges.
struct WorkerTestHooks {
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
  bool merge_resume = false;   ///< also skip jobs already merged into the
                               ///< canonical store (parent ran --resume)
  std::uint64_t master_seed = 0;
  std::size_t threads = 1;     ///< executor threads inside this worker
  WorkerTestHooks hooks;       ///< fault injection (tests only)

  /// The lease server, this worker's slot k of W (W also finds the
  /// sibling stores), and the per-request deadline and retry/backoff
  /// budget. Exhausting the retry budget orphans the worker: it keeps its
  /// committed prefix durable and exits with the distinct orphaned status
  /// instead of spinning forever. The worker sets `jobs` itself.
  LeaseClientOptions client;
};

/// Exit status a lease-client worker process uses when orphaned (the
/// server stayed unreachable past the retry budget). Distinct from crash
/// codes so the launcher can tell "server gone, committed prefix durable,
/// do not respawn" from "worker bug, respawn".
constexpr int kOrphanedExitCode = 3;

/// Exit status of a worker process whose configuration was rejected (the
/// CLI's usage-error code). It ran no job, so its death names no suspect,
/// and a respawn would be rejected the same way.
constexpr int kUsageExitCode = 2;

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

}  // namespace oracle::exp
