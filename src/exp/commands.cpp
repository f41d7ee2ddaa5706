#include "exp/commands.hpp"

#include <algorithm>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <iostream>
#include <thread>

#include "exp/aggregate.hpp"
#include "exp/service_protocol.hpp"
#include "obs/trace.hpp"
#include "stats/csv.hpp"
#include "util/error.hpp"
#include "util/log.hpp"
#include "util/net.hpp"
#include "util/string_util.hpp"

namespace oracle::exp {

namespace {

using NetClock = util::NetClock;

}  // namespace

// ---------------------------------------------------------------- aggregate

std::vector<std::string> resolve_metrics(std::vector<std::string> metrics) {
  if (metrics.empty()) metrics.push_back("speedup");
  if (std::find(metrics.begin(), metrics.end(), "all") != metrics.end())
    return Aggregator::metric_names();
  for (const auto& m : metrics) {
    const auto& known = Aggregator::metric_names();
    ORACLE_REQUIRE(std::find(known.begin(), known.end(), m) != known.end(),
                   "unknown metric '" + m + "' (try --metric list)");
  }
  return metrics;
}

int run_aggregate_command(const AggregateCommand& cmd) {
  const auto metrics = resolve_metrics(cmd.metrics);
  ORACLE_REQUIRE(!cmd.stores.empty(), "aggregate needs a JSONL store path");

  try {
    const auto agg = Aggregator::from_jsonl_files(cmd.stores);
    const auto groups = agg.summarize();
    if (groups.empty()) {
      std::fprintf(stderr, "oracle_batch: no parseable records in %s\n",
                   join(cmd.stores, " ").c_str());
      return 1;
    }
    std::printf("%s: %zu runs, %zu grid points", join(cmd.stores, " ").c_str(),
                agg.rows(), agg.groups());
    if (agg.skipped_lines() > 0)
      std::printf(" (%zu corrupt lines skipped)", agg.skipped_lines());
    if (agg.duplicate_rows() > 0)
      std::printf(" (%zu duplicate records ignored)", agg.duplicate_rows());
    std::printf("\n\n");
    for (const auto& m : metrics) {
      std::printf("-- %s --\n%s\n", m.c_str(),
                  Aggregator::to_table(groups, m).c_str());
    }
    if (!cmd.csv_path.empty()) {
      const std::string csv = Aggregator::to_csv(groups);
      if (cmd.csv_path == "-") {
        std::fputs(csv.c_str(), stdout);
      } else {
        stats::write_file(cmd.csv_path, csv);
        std::printf("csv: %s\n", cmd.csv_path.c_str());
      }
    }
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "oracle_batch: %s\n", e.what());
    return 1;
  }
}

// -------------------------------------------------------------------- trace

int run_trace_command(const TraceCommand& cmd) {
  ORACLE_REQUIRE(!cmd.base.empty(), "trace needs the --trace base path");
  const std::string out = cmd.out.empty() ? cmd.base : cmd.out;

  try {
    const auto inputs = obs::discover_trace_files(cmd.base);
    if (inputs.empty()) {
      std::fprintf(stderr,
                   "oracle_batch: no trace files found for '%s' (expected "
                   "%s.parent and/or %s.<k>of<W>)\n",
                   cmd.base.c_str(), cmd.base.c_str(), cmd.base.c_str());
      return 1;
    }
    const auto report = obs::merge_trace_files(inputs, out);
    std::printf("%s: merged %zu event(s) from %zu file(s)", out.c_str(),
                report.events, report.files_read);
    if (report.corrupt_lines > 0)
      std::printf(" (%zu corrupt line(s) skipped)", report.corrupt_lines);
    std::printf("\nload it at https://ui.perfetto.dev\n");
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "oracle_batch: %s\n", e.what());
    return 1;
  }
}

// ------------------------------------------------------------- serve-leases

namespace {

LeaseService* g_lease_service = nullptr;

void stop_lease_service(int) {
  if (g_lease_service != nullptr) g_lease_service->stop();
}

}  // namespace

int run_serve_leases_command(const ServeLeasesCommand& cmd) {
  ORACLE_REQUIRE(cmd.workers > 0,
                 "serve-leases needs --workers W (the worker slot count)");
  ORACLE_REQUIRE(!cmd.options.journal_path.empty(),
                 "serve-leases needs --journal PATH (the recovery journal)");

  try {
    LeaseServiceOptions sopt = cmd.options;
    const auto configs = cmd.sweep.build();
    sopt.jobs = configs.size();
    // Identical clamp to the run parent's: slot_count must agree between
    // server and every worker or acquire is rejected.
    sopt.slots = std::max<std::size_t>(1, std::min(cmd.workers, sopt.jobs));

    log::set_tag("lease-server");
    LeaseService service(sopt);
    service.start();
    // Line-buffered contract for launchers: the port is the first token a
    // wrapper (or the CI smoke script) needs, flushed before serving.
    std::printf("serving %zu job(s) to %zu slot(s) on %s:%u (journal %s)\n",
                sopt.jobs, sopt.slots, sopt.listen.host.c_str(),
                static_cast<unsigned>(service.port()),
                sopt.journal_path.c_str());
    std::fflush(stdout);

    g_lease_service = &service;
    std::signal(SIGINT, stop_lease_service);
    std::signal(SIGTERM, stop_lease_service);
    const auto stats = service.run();
    g_lease_service = nullptr;

    std::printf(
        "%s: %zu request(s), %zu grant(s), %zu steal(s), %zu reassign(s), "
        "%zu expiration(s), %zu fenced, %zu journal record(s) "
        "(%zu replayed, %zu torn skipped), %zu evicted\n",
        stats.completed ? "sweep complete" : "stopped", stats.requests,
        stats.grants, stats.steals, stats.reassigns, stats.expirations,
        stats.fenced, stats.journal_records, stats.replayed_records,
        stats.torn_journal_records, stats.evicted);
    return stats.completed ? 0 : 1;
  } catch (const ConfigError&) {
    throw;  // pre-flight problem: the CLI renders it as a usage error
  } catch (const std::exception& e) {
    std::fprintf(stderr, "oracle_batch: %s\n", e.what());
    return 1;
  }
}

// -------------------------------------------------------------------- serve

namespace {

Service* g_service = nullptr;

void stop_service(int) {
  if (g_service != nullptr) g_service->stop();
}

}  // namespace

int run_serve_command(const ServeCommand& cmd) {
  ORACLE_REQUIRE(!cmd.options.store.empty(),
                 "serve needs --store PATH (the canonical result store)");

  try {
    log::set_tag("oracle-serve");
    if (!cmd.trace_path.empty()) obs::Tracer::enable(0, "oracle-serve");

    Service service(cmd.options);
    service.start();
    // Same launcher contract as serve-leases: the bound port is the first
    // line on stdout, flushed before the poll loop starts.
    std::printf(
        "serving store %s (%zu cached record(s) across %zu store(s)) "
        "on %s:%u\n",
        cmd.options.store.c_str(), service.index().size(),
        service.index().store_count(), cmd.options.listen.host.c_str(),
        static_cast<unsigned>(service.port()));
    std::fflush(stdout);

    g_service = &service;
    std::signal(SIGINT, stop_service);
    std::signal(SIGTERM, stop_service);
    const auto stats = service.run();
    g_service = nullptr;

    std::printf(
        "%s: %zu request(s), %zu query(ies), %zu cache hit(s), "
        "%zu job(s) scheduled, %zu bad request(s), %zu evicted\n",
        stats.shutdown_requested ? "shutdown" : "stopped", stats.requests,
        stats.queries, stats.cache_hits, stats.jobs_scheduled,
        stats.bad_requests, stats.evicted);
    if (!cmd.trace_path.empty()) {
      const std::size_t events = obs::Tracer::write_json(cmd.trace_path);
      if (obs::Tracer::dropped() > 0)
        ORACLE_LOG_WARN(strfmt("trace buffer overflow: %zu event(s) dropped",
                               obs::Tracer::dropped()));
      std::printf("trace: %s (%zu events; load at https://ui.perfetto.dev)\n",
                  cmd.trace_path.c_str(), events);
    }
    return 0;
  } catch (const ConfigError&) {
    throw;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "oracle_batch: %s\n", e.what());
    return 1;
  }
}

// -------------------------------------------------------------------- query

int run_query_command(const QueryCommand& cmd) {
  const auto hp = util::HostPort::parse(cmd.server);
  ORACLE_REQUIRE(hp.has_value(), "query needs --server HOST:PORT");

  const auto frame_deadline = [&] {
    return NetClock::now() + std::chrono::milliseconds(cmd.timeout_ms);
  };

  try {
    auto sock = util::connect_tcp(*hp, frame_deadline());
    if (!sock.valid()) {
      std::fprintf(stderr, "oracle_batch: cannot connect to %s\n",
                   hp->str().c_str());
      return 1;
    }

    ServiceRequest req;
    req.seq = 1;
    req.op = ServiceOp::kQuery;
    req.query = cmd.query;
    if (!util::send_frame(sock.fd(), req.encode(), frame_deadline(),
                          kServiceMaxFrameBytes)) {
      std::fprintf(stderr, "oracle_batch: send to %s failed\n",
                   hp->str().c_str());
      return 1;
    }

    QueryStats stats;
    bool done = false;
    while (!done) {
      // Per-frame deadline: jobs may run for a while between frames, but a
      // server that stops talking entirely is a dead server.
      const auto payload =
          util::recv_frame(sock.fd(), frame_deadline(), kServiceMaxFrameBytes);
      if (!payload) {
        std::fprintf(stderr,
                     "oracle_batch: connection to %s lost mid-query\n",
                     hp->str().c_str());
        return 1;
      }
      const auto rsp = ServiceResponse::parse(*payload);
      if (!rsp || rsp->seq != req.seq) {
        std::fprintf(stderr, "oracle_batch: malformed response from %s\n",
                     hp->str().c_str());
        return 1;
      }
      switch (rsp->kind) {
        case ServiceResponseKind::kError:
          std::fprintf(stderr, "oracle_batch: server: %s\n",
                       rsp->text.c_str());
          return 1;
        case ServiceResponseKind::kProgress:
          std::fprintf(stderr,
                       "progress: %llu/%llu point(s) (%llu cached, "
                       "%llu scheduled)\n",
                       static_cast<unsigned long long>(rsp->completed),
                       static_cast<unsigned long long>(rsp->total),
                       static_cast<unsigned long long>(rsp->cached),
                       static_cast<unsigned long long>(rsp->scheduled));
          break;
        case ServiceResponseKind::kStats:
          stats.total = rsp->total;
          stats.cached = rsp->cached;
          stats.scheduled = rsp->scheduled;
          stats.failed = rsp->failed;
          stats.rounds = rsp->rounds;
          stats.wall_us = rsp->wall_us;
          break;
        case ServiceResponseKind::kTable:
          // stdout carries exactly what `oracle_batch aggregate` prints
          // for the same metric — byte-identical, that is the contract.
          std::printf("-- %s --\n%s\n", rsp->metric.c_str(),
                      rsp->text.c_str());
          break;
        case ServiceResponseKind::kCsv:
          if (cmd.csv_path.empty() || cmd.csv_path == "-") {
            std::fputs(rsp->text.c_str(), stdout);
          } else {
            stats::write_file(cmd.csv_path, rsp->text);
            std::fprintf(stderr, "csv: %s\n", cmd.csv_path.c_str());
          }
          break;
        case ServiceResponseKind::kDone:
          done = true;
          break;
        case ServiceResponseKind::kOk:
        case ServiceResponseKind::kStatus:
          break;  // not part of a query stream; ignore
      }
    }
    std::fflush(stdout);
    std::fprintf(stderr,
                 "query: %zu point(s), %zu cached, %zu scheduled, "
                 "%zu failed, %zu round(s), %.2fs\n",
                 stats.total, stats.cached, stats.scheduled, stats.failed,
                 stats.rounds, static_cast<double>(stats.wall_us) / 1e6);
    return stats.ok() ? 0 : 1;
  } catch (const ConfigError&) {
    throw;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "oracle_batch: %s\n", e.what());
    return 1;
  }
}

// ---------------------------------------------------------------- run/sweep

namespace {

/// The worker self-exec command line: the sweep re-encoded canonically
/// (core::SweepSpec::to_args) plus the engine flags workers need. The
/// supervisor appends the worker identity (--worker-slot k/W), the lease
/// server address and --resume itself.
std::vector<std::string> worker_command_line(const SweepCommand& cmd) {
  std::vector<std::string> args;
  args.push_back("run");
  for (auto& a : cmd.sweep.to_args()) args.push_back(std::move(a));
  args.push_back("--out");
  args.push_back(cmd.out);
  if (cmd.jobs_given) {
    args.push_back("--jobs");
    args.push_back(std::to_string(cmd.jobs));
  } else {
    // Split the hardware threads across the workers instead of letting
    // every worker oversubscribe the whole machine.
    const std::size_t hw =
        std::max<std::size_t>(1, std::thread::hardware_concurrency());
    args.push_back("--jobs");
    args.push_back(std::to_string(
        std::max<std::size_t>(1, hw / std::max<std::size_t>(1, cmd.workers))));
  }
  args.push_back("--lease-timeout-ms");
  args.push_back(std::to_string(cmd.lease_timeout_ms));
  args.push_back("--lease-retries");
  args.push_back(std::to_string(cmd.lease_retries));
  if (!cmd.log_level.empty()) {
    // Workers inherit the chosen verbosity.
    args.push_back("--log-level");
    args.push_back(cmd.log_level);
  }
  if (!cmd.trace_path.empty()) {
    // Forwarded so each spawned worker appends its own "<base>.<k>of<W>"
    // trace-line file beside the parent's.
    args.push_back("--trace");
    args.push_back(cmd.trace_path);
  }
  args.push_back("--no-progress");
  return args;
}

}  // namespace

int run_sweep_command(const SweepCommand& cmd) {
  const bool distributed = cmd.workers > 0 || cmd.worker_slot.has_value();
  if (distributed) {
    ORACLE_REQUIRE(!cmd.out.empty() && cmd.out != "-",
                   "distributed runs need a canonical --out store file");
    ORACLE_REQUIRE(
        cmd.csv_path.empty(),
        "--csv is not supported for distributed runs; derive a CSV from "
        "the merged store via `oracle_batch aggregate --csv`");
    ORACLE_REQUIRE(!(cmd.workers > 0 && cmd.worker_slot.has_value()),
                   "--workers (parent) and --worker-slot k/W (worker) are "
                   "exclusive");
  }
  ORACLE_REQUIRE(!(!cmd.lease_server.empty() && cmd.workers == 0 &&
                   !cmd.worker_slot.has_value()),
                 "--lease-server needs --workers N (parent) or "
                 "--worker-slot k/W (one worker)");
  ORACLE_REQUIRE(!(cmd.worker_slot.has_value() && cmd.lease_server.empty()),
                 "--worker-slot k/W needs --lease-server HOST:PORT");
  ORACLE_REQUIRE(!(cmd.retry_quarantined && !cmd.resume),
                 "--retry-quarantined needs --resume");
  ORACLE_REQUIRE(!(cmd.resume && cmd.out == "-"),
                 "--resume needs a JSONL store to resume from; it cannot "
                 "be combined with --out -");

  BatchOptions opt;
  opt.jsonl_path = cmd.out;
  opt.csv_path = cmd.csv_path;
  opt.resume = cmd.resume;
  opt.master_seed = cmd.sweep.master_seed;
  if (cmd.jobs_given) opt.exec.workers = cmd.jobs;
  opt.exec.progress = cmd.progress;

  bool stdout_records = false;
  if (opt.jsonl_path == "-") {
    opt.jsonl_path.clear();
    stdout_records = true;
    opt.jsonl_stream = &std::cout;
    opt.exec.progress = false;  // keep stdout pure JSONL
  }

  try {
    const core::SweepBuilder sweep = cmd.sweep.builder();
    opt.collect = false;  // sweeps can be huge; the store is the output

    if (cmd.workers > 0) {
      // Parent of a multi-process run: self-exec one lease-client worker
      // per slot. The supervisor's own lifecycle events (spawns, reaps,
      // and the in-process lease service's steals) record on logical
      // pid 0; workers take pid k+1 for slot k.
      if (!cmd.trace_path.empty()) obs::Tracer::enable(0, "supervisor");
      SupervisorOptions sopt;
      sopt.workers = cmd.workers;
      sopt.out = opt.jsonl_path;
      sopt.resume = opt.resume;
      sopt.keep_slot_stores = cmd.keep_slot_stores;
      sopt.master_seed = opt.master_seed;
      sopt.expiry_ms = cmd.expiry_ms;
      sopt.max_restarts = cmd.max_restarts;
      sopt.retry_quarantined = cmd.retry_quarantined;
      sopt.lease_server = cmd.lease_server;
      sopt.status_path = cmd.status_path;
      sopt.trace_path = cmd.trace_path;
      sopt.exec_path = self_exec_path(cmd.self);
      sopt.worker_args = worker_command_line(cmd);

      const auto report = run_supervisor(sweep.build(), sopt);
      std::printf("%s\n", report.summary().c_str());
      for (const auto& w : report.workers) {
        if (w.ok()) continue;
        // A failed exit may have been absorbed by an auto-restart; the
        // summary above already says so. Still surface each failure for
        // the log.
        const char* hint =
            report.merged ? "auto-restarted"
                          : "its completed jobs are safe; --resume finishes "
                            "the rest";
        const auto lvl = report.merged ? log::Level::Warn : log::Level::Error;
        if (w.term_signal != 0)
          ORACLE_LOG(lvl,
                     strfmt("worker slot %zu/%zu killed by signal %d (%s)",
                            w.slot, cmd.workers, w.term_signal, hint));
        else
          ORACLE_LOG(lvl,
                     strfmt("worker slot %zu/%zu exited with status %d (%s)",
                            w.slot, cmd.workers, w.exit_code, hint));
      }
      if (report.merged) std::printf("store: %s\n", sopt.out.c_str());
      if (!cmd.trace_path.empty()) {
        // Parent events go to "<base>.parent" as trace-event lines; the
        // trace subcommand stitches them with the worker files.
        obs::Tracer::write_event_lines(obs::parent_trace_path(cmd.trace_path),
                                       /*append=*/false);
        if (obs::Tracer::dropped() > 0)
          ORACLE_LOG_WARN(
              strfmt("trace buffer overflow: %zu event(s) dropped",
                     obs::Tracer::dropped()));
        std::printf(
            "trace: %s.{parent,<k>of<W>} (stitch with "
            "`oracle_batch trace %s`)\n",
            cmd.trace_path.c_str(), cmd.trace_path.c_str());
      }
      if (!cmd.status_path.empty())
        std::printf("status: %s\n", cmd.status_path.c_str());
      return report.ok() ? 0 : 1;
    }

    if (cmd.worker_slot.has_value()) {
      // Supervised worker: run the leases the lease server grants this
      // slot into its private store.
      const WorkerSlot& slot = *cmd.worker_slot;
      log::set_tag(strfmt("worker %zu/%zu", slot.index, slot.count));
      if (!cmd.trace_path.empty())
        obs::Tracer::enable(static_cast<std::uint32_t>(slot.index + 1),
                            strfmt("worker %zu", slot.index));
      const auto server = util::HostPort::parse(cmd.lease_server);
      if (!server)
        throw ConfigError("bad --lease-server address: " + cmd.lease_server);
      LeaseWorkerOptions wopt;
      wopt.canonical_out = opt.jsonl_path;
      wopt.merge_resume = opt.resume;
      wopt.master_seed = opt.master_seed;
      wopt.threads = cmd.jobs_given ? opt.exec.workers : 1;
      wopt.client.server = *server;
      wopt.client.slot = slot.index;
      wopt.client.slot_count = slot.count;
      wopt.client.op_timeout_ms = cmd.lease_timeout_ms;
      wopt.client.retry_budget = cmd.lease_retries;
      // CI fault injection: ORACLE_SHARD_FAULT="kill:<slot>:<n>" raises
      // SIGKILL in the matching slot before its job n, and
      // "stall:<slot>:<n>[:<ms>]" sleeps through the service's expiry
      // there. Each fires once: its marker lives beside the canonical
      // store, so the supervisor's respawn of the same slot runs clean.
      if (const char* fault = std::getenv("ORACLE_SHARD_FAULT")) {
        const auto parts = split(fault, ':');
        const bool slot_match =
            parts.size() >= 3 &&
            (parts[1] == "*" ||
             static_cast<std::size_t>(parse_int(parts[1], "fault slot")) ==
                 slot.index);
        if (slot_match) {
          const auto n =
              static_cast<std::size_t>(parse_int(parts[2], "fault job count"));
          wopt.hooks.once_marker = opt.jsonl_path + ".fault_fired";
          if (parts[0] == "kill") {
            wopt.hooks.die_after_n_jobs = n;
            wopt.hooks.die_with_sigkill = true;
          } else if (parts[0] == "stall") {
            wopt.hooks.stall_after_n_jobs = n;
            if (parts.size() >= 4)
              wopt.hooks.stall_ms = static_cast<std::uint32_t>(
                  parse_int(parts[3], "fault stall ms"));
          } else {
            throw ConfigError("ORACLE_SHARD_FAULT form must be kill or stall");
          }
        }
      }

      auto write_worker_trace = [&] {
        if (cmd.trace_path.empty()) return;
        // Append: a respawned slot continues the same per-slot file, so
        // the merged timeline shows the whole slot history. The durable
        // prefix was flushed by the previous incarnation at its exit; a
        // SIGKILLed one just loses its own buffer.
        obs::Tracer::write_event_lines(
            obs::worker_trace_path(cmd.trace_path, slot.index, slot.count),
            /*append=*/true);
      };

      const auto report = run_lease_client_worker(sweep.build(), wopt);
      ORACLE_LOG_INFO(strfmt(
          "%zu lease(s) run, %zu job(s) executed, %zu skipped; "
          "%llu retries, %llu reconnects%s%s",
          report.leases_run, report.batch.executed, report.batch.skipped,
          static_cast<unsigned long long>(report.retries),
          static_cast<unsigned long long>(report.reconnects),
          report.fenced ? "; fenced" : "",
          report.orphaned ? "; ORPHANED" : ""));
      for (const auto& err : report.batch.errors)
        ORACLE_LOG_ERROR("failed: " + err);
      write_worker_trace();
      if (report.orphaned) return kOrphanedExitCode;
      return report.batch.ok() ? 0 : 1;
    }

    // Plain (threaded) run: the tracer records on logical pid 0 and the
    // complete Chrome JSON document is written directly — no merge step.
    if (!cmd.trace_path.empty()) obs::Tracer::enable(0, "oracle_batch");
    opt.exec.status_path = cmd.status_path;

    const auto outcome = sweep.run_batch(opt);
    const auto& rep = outcome.report;
    if (!stdout_records) {
      std::printf("%s\n", rep.summary().c_str());
      std::printf(
          "throughput: %.1f jobs/s, %.3fM events/s (%llu simulation events "
          "in %.2fs)\n",
          rep.jobs_per_second(), rep.events_per_second() / 1e6,
          static_cast<unsigned long long>(rep.total_events),
          rep.elapsed_seconds);
      if (rep.job_wall.count > 0)
        std::printf("%s\n", rep.job_wall.summary().c_str());
      if (!opt.jsonl_path.empty())
        std::printf("store: %s\n", opt.jsonl_path.c_str());
      if (!opt.csv_path.empty())
        std::printf("csv:   %s\n", opt.csv_path.c_str());
    }
    if (!cmd.trace_path.empty()) {
      const std::size_t events = obs::Tracer::write_json(cmd.trace_path);
      if (obs::Tracer::dropped() > 0)
        ORACLE_LOG_WARN(strfmt("trace buffer overflow: %zu event(s) dropped",
                               obs::Tracer::dropped()));
      if (!stdout_records)
        std::printf(
            "trace: %s (%zu events; load at https://ui.perfetto.dev)\n",
            cmd.trace_path.c_str(), events);
    }
    for (const auto& err : rep.errors)
      ORACLE_LOG_ERROR("failed: " + err);
    return rep.ok() ? 0 : 1;
  } catch (const ConfigError&) {
    throw;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "oracle_batch: %s\n", e.what());
    return 1;
  }
}

}  // namespace oracle::exp
