#pragma once
// Library entry points behind every oracle_batch subcommand. The CLI
// (examples/oracle_batch.cpp) only parses argv into these request structs
// and dispatches; all run/aggregate/serve/query behaviour lives here so
// other entry points (cluster launchers, plugins, tests) are library
// clients instead of forks of the CLI.
//
// Convention: constructing an invalid command (contradictory flags,
// missing required paths) throws ConfigError from the run_* function
// before any work starts — the CLI maps that to a usage error (exit 2).
// Failures during execution are reported on stderr/log and become the
// nonzero int return (exit 1), like every subcommand always behaved.

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/sweep.hpp"
#include "exp/batch.hpp"
#include "exp/lease_service.hpp"
#include "exp/service.hpp"
#include "exp/supervisor.hpp"

namespace oracle::exp {

/// `oracle_batch aggregate <stores...> [--metric ...] [--csv PATH|-]`.
struct AggregateCommand {
  std::vector<std::string> stores;
  std::vector<std::string> metrics;  ///< may contain "all"; empty = speedup
  std::string csv_path;              ///< "" = none, "-" = stdout
};
int run_aggregate_command(const AggregateCommand& cmd);

/// Expand/validate a --metric list ("all", "list" handled by the CLI).
std::vector<std::string> resolve_metrics(std::vector<std::string> metrics);

/// `oracle_batch trace <base> [--out PATH]`.
struct TraceCommand {
  std::string base;
  std::string out;  ///< "" = base
};
int run_trace_command(const TraceCommand& cmd);

/// `oracle_batch serve-leases ...` — the cross-host lease server.
struct ServeLeasesCommand {
  core::SweepSpec sweep;
  LeaseServiceOptions options;  ///< listen/journal/status/linger from flags
  std::size_t workers = 0;      ///< worker slot count (required)
};
int run_serve_leases_command(const ServeLeasesCommand& cmd);

/// `oracle_batch serve --store S --listen H:P ...` — the resident oracle
/// service daemon (exp::Service over the service_protocol frames).
struct ServeCommand {
  ServiceOptions options;
  std::string trace_path;  ///< Chrome trace JSON written at daemon exit
};
int run_serve_command(const ServeCommand& cmd);

/// `oracle_batch query --server H:P [sweep flags] ...` — thin client: one
/// query frame out, progress/tables/stats frames back. Tables print to
/// stdout exactly as `oracle_batch aggregate` renders them; progress and
/// stats go to stderr.
struct QueryCommand {
  std::string server;            ///< HOST:PORT (required)
  ServiceQuery query;            ///< metrics already resolved
  std::string csv_path;          ///< "" = none, "-" = stdout
  std::uint32_t timeout_ms = 600'000;  ///< per-response-frame deadline
};
int run_query_command(const QueryCommand& cmd);

/// `oracle_batch [run] ...` — the sweep/run mode in all its shapes: plain
/// threaded run, the multi-process supervisor (in-process or remote lease
/// service), and the internal worker role.
struct SweepCommand {
  core::SweepSpec sweep;

  std::string out = "results.jsonl";  ///< "-" streams records to stdout
  std::string csv_path;
  bool resume = false;
  std::size_t jobs = 0;  ///< executor threads; meaningful when jobs_given
  bool jobs_given = false;
  bool progress = true;

  // Distributed mode.
  std::size_t workers = 0;                   ///< parent: fork this many
  std::optional<WorkerSlot> worker_slot;     ///< lease worker: slot k/W
  bool keep_slot_stores = false;
  std::uint32_t expiry_ms = 0;  ///< in-process expiry; 0 = adaptive
  std::size_t max_restarts = 2;
  bool retry_quarantined = false;
  std::string lease_server;  ///< "" = in-process lease service
  std::uint32_t lease_timeout_ms = 2'000;
  std::size_t lease_retries = 10;

  std::string trace_path;
  std::string status_path;
  std::string log_level;  ///< forwarded to spawned workers when non-empty

  std::string self;  ///< argv[0] for worker self-exec
};
int run_sweep_command(const SweepCommand& cmd);

}  // namespace oracle::exp
