// bench_service_concurrency — warm-query throughput of the resident
// oracle daemon: 8 concurrent clients hammering the same pre-warmed
// store, served by a 1-worker pool (the serial baseline — queries queue
// behind each other) vs an auto-sized pool (concurrent slices). Each
// phase keeps querying until it has run for kMinPhase, so one
// descheduled stretch on a shared host cannot decide the ratio. A warm
// query is pure serving-path work — index lookups, aggregation, table
// rendering, framing — so the ratio isolates what PR 10's concurrency
// actually buys on the serving path.
//
// The store is fabricated (one synthetic JSONL record per grid point, no
// simulations): the bench measures the daemon, not the engine.
//
// Output: one JSON object (CI saves it as BENCH_service.json and asserts
// speedup >= 2 on runners with >= 4 cores), with each phase's per-query
// wall latency percentiles (p50/p99 in ms). `tables_identical` asserts
// the concurrency contract — every response byte-identical to a direct
// aggregation — so a throughput win can never come from a wrong answer.

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "oracle.hpp"

namespace {

using namespace oracle;

constexpr std::size_t kClients = 8;
/// Every client sends at least this many queries per phase, and keeps
/// sending until the phase has run for kMinPhase.
constexpr std::size_t kQueriesPerClient = 24;
constexpr auto kMinPhase = std::chrono::seconds(2);

/// 38 workloads x 4 seeds = 152 records: a big enough table that one
/// warm query does real aggregation work.
core::SweepSpec bench_sweep() {
  core::SweepSpec spec;
  spec.topologies = {"grid:4x4"};
  spec.strategies = {"random"};
  spec.workloads.clear();  // drop the default fib:13, which the loop adds
  for (int i = 2; i <= 39; ++i)
    spec.workloads.push_back("fib:" + std::to_string(i));
  spec.seeds = {1, 2, 3, 4};
  return spec;
}

stats::RunResult fabricated(const exp::ExperimentJob& job) {
  stats::RunResult r;
  r.topology = job.config.topology;
  r.strategy = job.config.strategy;
  r.workload = job.config.workload;
  r.num_pes = 16;
  r.seed = job.config.machine.seed;
  r.completion_time = 1000 + static_cast<std::int64_t>(job.index);
  r.goals_executed = 10;
  r.total_work = 500;
  r.critical_path = 100;
  r.avg_utilization = 0.5;
  r.speedup = 2.0 + 0.01 * static_cast<double>(job.index % 7);
  r.events_executed = 42;
  return r;
}

void fabricate_store(const core::SweepSpec& spec, const std::string& store) {
  std::remove(store.c_str());
  exp::JobQueue queue(spec.build());
  std::ofstream out(store, std::ios::binary);
  for (const auto& job : queue.jobs())
    out << exp::jsonl_record(job, fabricated(job)) << '\n';
}

util::NetDeadline in_30s() {
  return util::NetClock::now() + std::chrono::seconds(30);
}

/// One warm query over the wire; returns the table bytes ("" on failure).
std::string wire_query(int fd, const core::SweepSpec& spec,
                       std::uint64_t seq) {
  exp::ServiceRequest req;
  req.seq = seq;
  req.op = exp::ServiceOp::kQuery;
  req.query.sweep = spec;
  if (!util::send_frame(fd, req.encode(), in_30s(),
                        exp::kServiceMaxFrameBytes))
    return "";
  std::string table;
  while (true) {
    const auto payload =
        util::recv_frame(fd, in_30s(), exp::kServiceMaxFrameBytes);
    if (!payload) return "";
    const auto rsp = exp::ServiceResponse::parse(*payload);
    if (!rsp || rsp->seq != seq) return "";
    if (rsp->kind == exp::ServiceResponseKind::kTable) table = rsp->text;
    if (rsp->kind == exp::ServiceResponseKind::kError) return "";
    if (rsp->kind == exp::ServiceResponseKind::kDone) return table;
  }
}

struct PhaseResult {
  std::size_t queries = 0;
  double qps = 0.0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  bool tables_identical = true;
};

/// The sample p% of the way through `v` (rounded rank; sorts `v` in
/// place); 0 when empty.
double percentile(std::vector<double>& v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      p / 100.0 * static_cast<double>(v.size() - 1) + 0.5);
  return v[std::min(rank, v.size() - 1)];
}

PhaseResult run_phase(const std::string& store, const core::SweepSpec& spec,
                      std::size_t query_threads,
                      const std::string& reference) {
  exp::ServiceOptions opt;
  opt.store = store;
  opt.query_threads = query_threads;
  exp::Service service(opt);
  service.start();
  std::thread daemon([&] { service.run(); });
  const std::uint16_t port = service.port();

  PhaseResult out;
  std::vector<char> client_ok(kClients, 1);
  std::vector<std::vector<double>> latency_ms(kClients);
  const auto t0 = std::chrono::steady_clock::now();
  std::vector<std::thread> clients;
  for (std::size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      auto sock = util::connect_tcp({"127.0.0.1", port}, in_30s());
      if (!sock.valid()) {
        client_ok[c] = 0;
        return;
      }
      for (std::uint64_t seq = 1;
           seq <= kQueriesPerClient ||
           std::chrono::steady_clock::now() - t0 < kMinPhase;
           ++seq) {
        const auto sent = std::chrono::steady_clock::now();
        const auto table = wire_query(sock.fd(), spec, seq);
        latency_ms[c].push_back(std::chrono::duration<double, std::milli>(
                                    std::chrono::steady_clock::now() - sent)
                                    .count());
        if (table != reference) {
          client_ok[c] = 0;
          return;
        }
      }
    });
  }
  for (auto& t : clients) t.join();
  const double secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();

  service.stop();
  daemon.join();

  for (const char ok : client_ok)
    if (!ok) out.tables_identical = false;
  std::vector<double> all;
  for (const auto& v : latency_ms) all.insert(all.end(), v.begin(), v.end());
  out.queries = all.size();
  out.p50_ms = percentile(all, 50);
  out.p99_ms = percentile(all, 99);
  out.qps = secs > 0 ? static_cast<double>(out.queries) / secs : 0.0;
  return out;
}

}  // namespace

int main() {
  log::set_level(log::Level::Warn);
  const std::string store = "/tmp/oracle_bench_service_" +
                            std::to_string(::getpid()) + ".jsonl";
  const auto spec = bench_sweep();
  fabricate_store(spec, store);

  // The answer every query must render, byte for byte.
  const auto agg = exp::Aggregator::from_jsonl_files({store});
  const std::string reference =
      exp::Aggregator::to_table(agg.summarize(), "speedup");

  const auto serial = run_phase(store, spec, 1, reference);
  const auto concurrent = run_phase(store, spec, 0, reference);
  std::remove(store.c_str());

  const unsigned cpus = std::thread::hardware_concurrency();
  const double speedup =
      serial.qps > 0 ? concurrent.qps / serial.qps : 0.0;
  std::printf(
      "{\"bench\":\"service_concurrency\",\"cpus\":%u,\"clients\":%zu,"
      "\"min_phase_s\":%lld,\"serial_queries\":%zu,"
      "\"concurrent_queries\":%zu,\"serial_qps\":%.1f,"
      "\"concurrent_qps\":%.1f,\"speedup\":%.3f,\"serial_p50_ms\":%.3f,"
      "\"serial_p99_ms\":%.3f,\"concurrent_p50_ms\":%.3f,"
      "\"concurrent_p99_ms\":%.3f,\"tables_identical\":%s}\n",
      cpus, kClients, static_cast<long long>(kMinPhase.count()),
      serial.queries, concurrent.queries, serial.qps, concurrent.qps, speedup,
      serial.p50_ms, serial.p99_ms, concurrent.p50_ms, concurrent.p99_ms,
      serial.tables_identical && concurrent.tables_identical ? "true"
                                                             : "false");
  return serial.tables_identical && concurrent.tables_identical ? 0 : 1;
}
