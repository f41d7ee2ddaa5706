#pragma once
// Live run status: a small JSON snapshot that the single-process
// executor, the supervisor, the lease service (`serve-leases`) and the
// oracle service (`serve`) each atomically rewrite every kStatusInterval,
// so anything — a dashboard, a human with `watch cat` — can follow a
// running sweep without parsing logs.
//
// Atomicity contract: the file is replaced via tmp + rename
// (util::write_file_atomic), so a reader always sees one complete
// snapshot, never a torn write. StatusFile.ConcurrentReadsNeverSeeATornFile
// (tests/test_trace.cpp) hammer-reads the file through 1,000 rewrites,
// and the fault-injection tests poll-read it while a supervised run
// crashes and restarts workers underneath it; every read must parse.

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace oracle::obs {

/// How often every status producer rewrites its status file.
inline constexpr std::chrono::milliseconds kStatusInterval{500};

/// Per-worker-slot state inside a supervised multi-process run.
struct WorkerStatus {
  std::size_t slot = 0;
  bool live = false;              ///< a process currently runs this slot
  std::size_t lease_begin = 0;    ///< current lease [begin, end)
  std::size_t lease_end = 0;
  std::size_t frontier = 0;       ///< first job not yet durably committed
  std::size_t restarts = 0;       ///< respawns consumed by this slot
  /// Since the lease service last heard from the slot; -1 when unknown.
  double heartbeat_age_s = -1.0;
};

struct StatusSnapshot {
  static constexpr int kVersion = 1;

  std::string phase = "running";  ///< running | merging | done | failed
  std::size_t jobs_total = 0;
  std::size_t jobs_done = 0;
  double elapsed_seconds = 0.0;
  std::size_t steals = 0;
  std::size_t restarts = 0;
  std::size_t quarantined = 0;  ///< poison jobs skipped (see exp/lease_worker.hpp)
  std::size_t fenced = 0;       ///< stale-epoch commits rejected (lease server)
  std::size_t retries = 0;      ///< client request retries seen (lease server)
  std::size_t requests = 0;     ///< frames answered (resident oracle service)
  std::size_t cache_hits = 0;   ///< grid points served from the store index
  std::size_t connections = 0;  ///< open client connections (oracle service)
  std::size_t queue_depth = 0;  ///< queries waiting for a worker slice
  std::size_t in_flight = 0;    ///< queries executing on workers right now
  std::size_t evicted = 0;      ///< stalled/dead connections dropped
  /// The lease service's slot expiry threshold in seconds: fixed, or
  /// adaptive (written as "none" before its first job-wall sample). A
  /// worker whose heartbeat_age_s exceeds it is expired and reaped.
  std::optional<double> expiry_s;
  std::vector<WorkerStatus> workers;  ///< empty for single-process runs

  /// jobs_done per elapsed second; 0 before any time has passed.
  double jobs_per_second() const;
  /// Seconds until jobs_total at that rate: 0 once the phase is done or
  /// failed, -1 while unknown (no rate yet).
  double eta_seconds() const;

  /// One-line JSON document (always valid JSON; schema in README).
  std::string to_json() const;

  /// Parse a snapshot written by to_json(); nullopt on malformed input.
  static std::optional<StatusSnapshot> parse(const std::string& json);
};

/// Atomically replace `path` with the snapshot (tmp + rename). Throws
/// SimulationError when the write fails.
void write_status_file(const std::string& path, const StatusSnapshot& s);

/// Read and parse `path`; nullopt when missing or malformed.
std::optional<StatusSnapshot> read_status_file(const std::string& path);

}  // namespace oracle::obs
