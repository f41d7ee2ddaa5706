// oracle_batch — the command-line front end of the batch experiment
// engine. Every subcommand is a thin argv parser over the library entry
// points in exp/commands.hpp (which own all behaviour; see that header
// and README.md for the full flag reference):
//
//   oracle_batch [run] ...          cartesian sweeps: threaded, or
//                                   supervised worker processes over a
//                                   local or cross-host lease service
//   oracle_batch aggregate ...      multi-seed summary tables / CSV over
//                                   one or more JSONL result stores
//   oracle_batch trace <base>       stitch distributed --trace files
//   oracle_batch serve-leases ...   cross-host fenced lease server
//   oracle_batch serve ...          resident oracle service: memoized
//                                   sweep serving over a store index
//   oracle_batch query ...          client for a running serve daemon
//
// Exit codes: 0 ok, 1 runtime failure, 2 usage error (3 = orphaned
// lease worker). Invalid flag combinations surface as ConfigError from
// the command layer and are rendered as usage errors here.

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "oracle.hpp"
#include "util/spec.hpp"

namespace {

using namespace oracle;

[[noreturn]] void usage_error(const std::string& msg) {
  std::fprintf(stderr, "oracle_batch: %s\n(run with --help for usage)\n",
               msg.c_str());
  std::exit(2);
}

void print_usage() {
  std::printf(
      "usage: oracle_batch [run] [--topologies A,B,..] [--strategies A,B,..]\n"
      "                    [--workloads A,B,..] [--seeds N|A,B,..]\n"
      "                    [--master-seed M] [--preset NAME] [--jobs N]\n"
      "                    [--out PATH|-] [--csv PATH] [--resume]\n"
      "                    [--sample N] [--hop-latency N] [--no-progress]\n"
      "                    [--sim-threads N] [--sim-partitions K]\n"
      "                    [--log-level LVL] [--trace PATH] [--status-file PATH]\n"
      "       oracle_batch run ... --workers N [--keep-shards] [--heartbeat-ms N]\n"
      "                    [--max-restarts N] [--retry-quarantined]\n"
      "                    [--lease-server HOST:PORT] [--lease-timeout-ms N]\n"
      "                    [--lease-retries N]  (supervised worker processes;\n"
      "                    a worker silent past the lease service's expiry,\n"
      "                    adaptive or --heartbeat-ms, is killed and\n"
      "                    respawned; --keep-shards keeps the per-slot\n"
      "                    stores; every run steals, and --steal stays\n"
      "                    accepted and ignored because CI and the\n"
      "                    benchmark pass it)\n"
      "       oracle_batch serve-leases ... --workers W --journal PATH\n"
      "                    [--listen H:P] [--status-file PATH] [--linger-ms N]\n"
      "                                                  (cross-host lease server)\n"
      "       oracle_batch aggregate <store.jsonl> [<store2.jsonl> ...]\n"
      "                    [--metric NAME|all|list] [--csv PATH|-]\n"
      "       oracle_batch trace <base> [--out PATH]     (stitch --trace files)\n"
      "       oracle_batch serve --store S [--store EXTRA ...] [--listen H:P]\n"
      "                    [--jobs N] [--status-file PATH]\n"
      "                    [--query-threads N] [--job-budget N]\n"
      "                    [--client-timeout-ms N] [--trace PATH]\n"
      "                    [--log-level LVL]         (resident oracle service)\n"
      "       oracle_batch query --server HOST:PORT [sweep options]\n"
      "                    [--metric NAME|all|list] [--csv PATH|-]\n"
      "                    [--target METRIC:HALFWIDTH] [--timeout-ms N]\n"
      "                                                  (ask a serve daemon)\n");
}

/// An integer flag value, rejected below `min` before any caller casts it
/// to an unsigned type (-1 must not wrap to 2^64-1).
std::int64_t int_flag(const std::string& text, const std::string& flag,
                      std::int64_t min) {
  const auto n = parse_int(text, flag);
  if (n < min)
    usage_error(flag + " must be >= " + std::to_string(min));
  return n;
}

/// A comma list flag, split by the spec list rule
/// ("cwn:radius=5,horizon=1,gm" is two strategies).
std::vector<std::string> list_flag(const std::string& value,
                                   const std::string& flag) {
  auto out = util::split_spec_list(value);
  if (out.empty()) usage_error(flag + " needs at least one entry");
  return out;
}

/// --preset is applied in a pre-scan so explicit axes and knobs always
/// win, regardless of where they appear relative to --preset.
void apply_preset_prescan(int argc, char** argv, core::SweepSpec& sweep) {
  for (int i = 1; i + 1 < argc; ++i)
    if (std::string(argv[i]) == "--preset") sweep.apply_preset(argv[i + 1]);
}

/// Shared handling of the sweep-defining flags (axes + engine knobs).
/// Returns false when `arg` is not a sweep flag. `value` yields the
/// flag's argument (advancing the caller's cursor).
template <typename ValueFn>
bool parse_sweep_flag(core::SweepSpec& sweep, const std::string& arg,
                      ValueFn&& value) {
  if (arg == "--topologies") {
    sweep.topologies = list_flag(value(), arg);
  } else if (arg == "--strategies") {
    sweep.strategies = list_flag(value(), arg);
  } else if (arg == "--workloads") {
    sweep.workloads = list_flag(value(), arg);
  } else if (arg == "--seeds") {
    sweep.seeds = core::SweepSpec::parse_seed_axis(value());
  } else if (arg == "--master-seed") {
    // 0 is the engine's "disabled" sentinel — reject rather than
    // silently falling back to the raw seeds axis.
    sweep.master_seed = static_cast<std::uint64_t>(int_flag(value(), arg, 1));
  } else if (arg == "--preset") {
    value();  // already applied by the pre-scan
  } else if (arg == "--sample") {
    sweep.sample_interval = int_flag(value(), arg, 0);
  } else if (arg == "--hop-latency") {
    sweep.hop_latency = int_flag(value(), arg, 0);
  } else if (arg == "--sim-threads") {
    sweep.sim_threads = int_flag(value(), arg, 1);
  } else if (arg == "--sim-partitions") {
    sweep.sim_partitions = int_flag(value(), arg, 0);
  } else {
    return false;
  }
  return true;
}

/// "--metric list" prints the metric vocabulary and exits; "all" and
/// validation are handled by exp::resolve_metrics.
bool metrics_list_requested(const std::vector<std::string>& metrics) {
  if (metrics.size() != 1 || metrics[0] != "list") return false;
  for (const auto& name : exp::Aggregator::metric_names())
    std::printf("%s\n", name.c_str());
  return true;
}

int aggregate_cli(int argc, char** argv) {
  exp::AggregateCommand cmd;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage_error(arg + " needs a value");
      return argv[++i];
    };
    if (arg == "--help" || arg == "-h") {
      print_usage();
      return 0;
    } else if (arg == "--metric") {
      for (const auto& m : list_flag(value(), arg)) cmd.metrics.push_back(m);
    } else if (arg == "--csv") {
      cmd.csv_path = value();
    } else if (!arg.empty() && arg[0] == '-') {
      usage_error("unknown aggregate option '" + arg + "'");
    } else {
      cmd.stores.push_back(arg);
    }
  }
  if (metrics_list_requested(cmd.metrics)) return 0;
  return exp::run_aggregate_command(cmd);
}

int trace_cli(int argc, char** argv) {
  exp::TraceCommand cmd;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      print_usage();
      return 0;
    } else if (arg == "--out") {
      if (i + 1 >= argc) usage_error("--out needs a value");
      cmd.out = argv[++i];
    } else if (!arg.empty() && arg[0] == '-') {
      usage_error("unknown trace option '" + arg + "'");
    } else if (cmd.base.empty()) {
      cmd.base = arg;
    } else {
      usage_error("trace takes exactly one <base> path");
    }
  }
  return exp::run_trace_command(cmd);
}

int serve_leases_cli(int argc, char** argv) {
  exp::ServeLeasesCommand cmd;
  std::string listen = "127.0.0.1:0";
  apply_preset_prescan(argc, argv, cmd.sweep);
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage_error(arg + " needs a value");
      return argv[++i];
    };
    if (arg == "--help" || arg == "-h") {
      print_usage();
      return 0;
    } else if (parse_sweep_flag(cmd.sweep, arg, value)) {
    } else if (arg == "--workers") {
      cmd.workers = static_cast<std::size_t>(int_flag(value(), arg, 1));
    } else if (arg == "--listen") {
      listen = value();
    } else if (arg == "--journal") {
      cmd.options.journal_path = value();
    } else if (arg == "--status-file") {
      cmd.options.status_path = value();
    } else if (arg == "--linger-ms") {
      cmd.options.linger_ms =
          static_cast<std::uint32_t>(int_flag(value(), arg, 0));
    } else if (arg == "--log-level") {
      const auto lvl = log::parse_level(value());
      if (!lvl) usage_error("--log-level needs trace|debug|info|warn|error|off");
      log::set_level(*lvl);
    } else {
      usage_error("unknown serve-leases option '" + arg + "'");
    }
  }
  const auto hp = util::HostPort::parse(listen, /*allow_port_zero=*/true);
  if (!hp) usage_error("--listen needs HOST:PORT (or :PORT)");
  cmd.options.listen = *hp;
  cmd.options.master_seed = cmd.sweep.master_seed;
  return exp::run_serve_leases_command(cmd);
}

int serve_cli(int argc, char** argv) {
  exp::ServeCommand cmd;
  std::string listen = "127.0.0.1:0";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage_error(arg + " needs a value");
      return argv[++i];
    };
    if (arg == "--help" || arg == "-h") {
      print_usage();
      return 0;
    } else if (arg == "--store") {
      // First --store is the canonical (writable) store; later ones are
      // extra read-only cache sources.
      if (cmd.options.store.empty())
        cmd.options.store = value();
      else
        cmd.options.extra_stores.push_back(value());
    } else if (arg == "--listen") {
      listen = value();
    } else if (arg == "--jobs") {
      cmd.options.exec_threads =
          static_cast<std::size_t>(int_flag(value(), arg, 0));
    } else if (arg == "--status-file") {
      cmd.options.status_path = value();
    } else if (arg == "--query-threads") {
      cmd.options.query_threads =
          static_cast<std::size_t>(int_flag(value(), arg, 0));
    } else if (arg == "--job-budget") {
      cmd.options.job_budget =
          static_cast<std::size_t>(int_flag(value(), arg, 1));
    } else if (arg == "--client-timeout-ms") {
      const auto n = int_flag(value(), arg, 1);
      cmd.options.write_timeout_ms = static_cast<std::uint32_t>(n);
      cmd.options.read_timeout_ms = static_cast<std::uint32_t>(n);
    } else if (arg == "--trace") {
      cmd.trace_path = value();
    } else if (arg == "--log-level") {
      const auto lvl = log::parse_level(value());
      if (!lvl) usage_error("--log-level needs trace|debug|info|warn|error|off");
      log::set_level(*lvl);
    } else {
      usage_error("unknown serve option '" + arg + "'");
    }
  }
  const auto hp = util::HostPort::parse(listen, /*allow_port_zero=*/true);
  if (!hp) usage_error("--listen needs HOST:PORT (or :PORT)");
  cmd.options.listen = *hp;
  return exp::run_serve_command(cmd);
}

int query_cli(int argc, char** argv) {
  exp::QueryCommand cmd;
  std::vector<std::string> metrics;
  std::string target;
  apply_preset_prescan(argc, argv, cmd.query.sweep);
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage_error(arg + " needs a value");
      return argv[++i];
    };
    if (arg == "--help" || arg == "-h") {
      print_usage();
      return 0;
    } else if (parse_sweep_flag(cmd.query.sweep, arg, value)) {
    } else if (arg == "--server") {
      cmd.server = value();
    } else if (arg == "--metric") {
      for (const auto& m : list_flag(value(), arg)) metrics.push_back(m);
    } else if (arg == "--csv") {
      cmd.csv_path = value();
      cmd.query.want_csv = true;
    } else if (arg == "--target") {
      target = value();
    } else if (arg == "--timeout-ms") {
      cmd.timeout_ms = static_cast<std::uint32_t>(int_flag(value(), arg, 1));
    } else {
      usage_error("unknown query option '" + arg + "'");
    }
  }
  if (metrics_list_requested(metrics)) return 0;
  cmd.query.metrics = exp::resolve_metrics(metrics);
  if (!target.empty()) {
    // METRIC:HALFWIDTH, e.g. speedup:0.05 — keep scheduling fresh seeds
    // until every grid point's 95% CI half-width is within the target.
    const auto colon = target.rfind(':');
    if (colon == std::string::npos || colon == 0 || colon + 1 >= target.size())
      usage_error("--target needs METRIC:HALFWIDTH (e.g. speedup:0.05)");
    cmd.query.target_metric = target.substr(0, colon);
    cmd.query.target_ci95 =
        parse_double(target.substr(colon + 1), "--target half-width");
    if (cmd.query.target_ci95 <= 0.0)
      usage_error("--target half-width must be > 0");
  }
  if (cmd.server.empty()) usage_error("query needs --server HOST:PORT");
  return exp::run_query_command(cmd);
}

/// The sweep/run mode. `run_mode` unlocks the distributed options; `self`
/// is the original argv[0] for worker self-exec.
int sweep_cli(int argc, char** argv, bool run_mode, const std::string& self) {
  exp::SweepCommand cmd;
  cmd.self = self;
  apply_preset_prescan(argc, argv, cmd.sweep);
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage_error(arg + " needs a value");
      return argv[++i];
    };
    if (arg == "--help" || arg == "-h") {
      print_usage();
      return 0;
    } else if (parse_sweep_flag(cmd.sweep, arg, value)) {
    } else if (arg == "--jobs") {
      cmd.jobs = static_cast<std::size_t>(int_flag(value(), arg, 0));
      cmd.jobs_given = true;
    } else if (arg == "--workers" && run_mode) {
      cmd.workers = static_cast<std::size_t>(int_flag(value(), arg, 1));
    } else if (arg == "--steal" && run_mode) {
      // Accepted and ignored: every supervised run steals, and the CI
      // smoke steps and perfbench's sweep_steal workload still pass it.
    } else if (arg == "--heartbeat-ms" && run_mode) {
      // 0 keeps the lease service's adaptive expiry.
      cmd.expiry_ms = static_cast<std::uint32_t>(int_flag(value(), arg, 0));
    } else if (arg == "--max-restarts" && run_mode) {
      cmd.max_restarts = static_cast<std::size_t>(int_flag(value(), arg, 0));
    } else if (arg == "--retry-quarantined" && run_mode) {
      cmd.retry_quarantined = true;
    } else if (arg == "--lease-server" && run_mode) {
      cmd.lease_server = value();
      if (!util::HostPort::parse(cmd.lease_server))
        usage_error("--lease-server needs HOST:PORT");
    } else if (arg == "--lease-timeout-ms" && run_mode) {
      cmd.lease_timeout_ms =
          static_cast<std::uint32_t>(int_flag(value(), arg, 1));
    } else if (arg == "--lease-retries" && run_mode) {
      cmd.lease_retries = static_cast<std::size_t>(int_flag(value(), arg, 0));
    } else if (arg == "--worker-slot" && run_mode) {
      cmd.worker_slot = exp::WorkerSlot::parse(value());
      if (!cmd.worker_slot) usage_error("--worker-slot needs k/W with k < W");
    } else if (arg == "--keep-shards" && run_mode) {
      cmd.keep_slot_stores = true;
    } else if (arg == "--out") {
      cmd.out = value();
    } else if (arg == "--csv") {
      cmd.csv_path = value();
    } else if (arg == "--resume") {
      cmd.resume = true;
    } else if (arg == "--no-progress") {
      cmd.progress = false;
    } else if (arg == "--log-level") {
      const auto v = value();
      const auto lvl = log::parse_level(v);
      if (!lvl) usage_error("--log-level needs trace|debug|info|warn|error|off");
      log::set_level(*lvl);
      cmd.log_level = v;  // workers inherit the chosen verbosity
    } else if (arg == "--trace") {
      cmd.trace_path = value();
    } else if (arg == "--status-file") {
      // Parent-owned: workers report through their lease traffic, not
      // their own status files, so this is deliberately not forwarded.
      cmd.status_path = value();
    } else {
      usage_error("unknown option '" + arg + "'");
    }
  }
  return exp::run_sweep_command(cmd);
}

}  // namespace

int main(int argc, char** argv) {
  // Verbosity: CLI default Info, ORACLE_LOG env overrides fleet-wide
  // (worker processes inherit it), an explicit --log-level flag wins.
  if (!oracle::log::init_from_env())
    oracle::log::set_level(oracle::log::Level::Info);
  const std::string self = argv[0];
  const std::string sub = argc > 1 ? argv[1] : "";
  try {
    if (sub == "aggregate") return aggregate_cli(argc - 1, argv + 1);
    if (sub == "trace") return trace_cli(argc - 1, argv + 1);
    if (sub == "serve-leases") return serve_leases_cli(argc - 1, argv + 1);
    if (sub == "serve") return serve_cli(argc - 1, argv + 1);
    if (sub == "query") return query_cli(argc - 1, argv + 1);
    if (sub == "run")
      return sweep_cli(argc - 1, argv + 1, /*run_mode=*/true, self);
    return sweep_cli(argc, argv, /*run_mode=*/false, self);
  } catch (const oracle::ConfigError& e) {
    usage_error(e.what());
  }
}
