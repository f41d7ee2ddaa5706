// The resident oracle service (exp::Service + the "s1" service protocol):
// request/response wire round-trips, malformed-frame rejection, and the
// memoization contract — a cold query schedules exactly the missing jobs,
// a warm repeat of the same query is 100% cache hits, runs zero jobs, and
// renders aggregates byte-identical to a direct Aggregator pass over the
// same store. The daemon smoke drives a real TCP poll loop in-process.

#include <gtest/gtest.h>

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "core/sweep.hpp"
#include "exp/aggregate.hpp"
#include "exp/batch.hpp"
#include "exp/job_queue.hpp"
#include "exp/result_sink.hpp"
#include "exp/service.hpp"
#include "exp/service_protocol.hpp"
#include "obs/status.hpp"
#include "stats/run_result.hpp"
#include "util/error.hpp"
#include "util/net.hpp"

namespace oracle {
namespace {

using exp::ServiceOp;
using exp::ServiceRequest;
using exp::ServiceResponse;
using exp::ServiceResponseKind;

std::string temp_path(const std::string& name) {
  // Pid-unique: ctest runs each TEST as its own process, concurrently.
  return testing::TempDir() + "oracle_svc_" + std::to_string(::getpid()) +
         "_" + name;
}

/// The fixed fast sweep the service tests query: 1 x 2 x 1 x 2 = 4 jobs.
core::SweepSpec small_sweep() {
  core::SweepSpec s;
  s.topologies = {"grid:4x4"};
  s.strategies = {"cwn:radius=3", "random"};
  s.workloads = {"fib:8"};
  s.seeds = {1, 2};
  return s;
}

/// Run `spec` directly through the batch engine into `store` (the
/// "already have the results" precondition for warm queries).
void prebuild_store(const core::SweepSpec& spec, const std::string& store) {
  std::remove(store.c_str());
  exp::BatchOptions opt;
  opt.jsonl_path = store;
  opt.collect = false;
  const auto outcome = exp::run_batch(spec.build(), opt);
  ASSERT_TRUE(outcome.report.ok());
}

/// A fabricated run record for `job`: identification from the config,
/// metrics chosen by the test. Lets a test author a store with exact
/// metric values (NaN, pinned single samples) without running anything.
stats::RunResult fabricated_result(const exp::ExperimentJob& job,
                                   double speedup) {
  stats::RunResult r;
  r.topology = job.config.topology;
  r.strategy = job.config.strategy;
  r.workload = job.config.workload;
  r.num_pes = 16;
  r.seed = job.config.machine.seed;
  r.completion_time = 1000;
  r.goals_executed = 10;
  r.total_work = 500;
  r.critical_path = 100;
  r.avg_utilization = 0.5;
  r.speedup = speedup;
  r.events_executed = 42;
  return r;
}

/// Write one fabricated record per job of `spec` into `store` (the warm
/// precondition, without paying for simulations).
void fabricate_store(const core::SweepSpec& spec, const std::string& store,
                     double speedup = 2.0) {
  std::remove(store.c_str());
  exp::JobQueue queue(spec.build());
  std::ofstream out(store, std::ios::binary);
  ASSERT_TRUE(out.is_open());
  for (const auto& job : queue.jobs())
    out << exp::jsonl_record(job, fabricated_result(job, speedup)) << '\n';
}

/// ServiceSink that records everything it is handed.
struct CollectSink : exp::ServiceSink {
  std::vector<std::vector<std::size_t>> progress;
  std::vector<std::pair<std::string, std::string>> tables;
  std::string csv;
  exp::QueryStats stats;
  bool got_stats = false;

  void on_progress(std::size_t total, std::size_t cached,
                   std::size_t scheduled, std::size_t completed) override {
    progress.push_back({total, cached, scheduled, completed});
  }
  void on_table(const std::string& metric, const std::string& table) override {
    tables.emplace_back(metric, table);
  }
  void on_csv(const std::string& c) override { csv = c; }
  void on_stats(const exp::QueryStats& s) override {
    stats = s;
    got_stats = true;
  }
};

// ---------------------------------------------------------- wire protocol --

TEST(ServiceProtocol, SimpleRequestsRoundTrip) {
  for (const auto op :
       {ServiceOp::kPing, ServiceOp::kStatus, ServiceOp::kShutdown}) {
    ServiceRequest req;
    req.seq = 42;
    req.op = op;
    const auto parsed = ServiceRequest::parse(req.encode());
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(parsed->seq, 42u);
    EXPECT_EQ(parsed->op, op);
  }
}

TEST(ServiceProtocol, QueryRequestRoundTripsEveryField) {
  ServiceRequest req;
  req.seq = 7;
  req.op = ServiceOp::kQuery;
  req.query.sweep.topologies = {"grid:6x6", "dlm:5:10x10"};
  req.query.sweep.strategies = {"cwn:radius=4", "gm"};
  req.query.sweep.workloads = {"fib:11"};
  req.query.sweep.seeds = {3, 9, 27};
  req.query.sweep.sample_interval = 50;
  req.query.sweep.hop_latency = 2;
  req.query.sweep.sim_threads = 4;
  req.query.sweep.sim_partitions = 8;
  req.query.metrics = {"speedup", "avg_utilization"};
  req.query.want_csv = true;
  req.query.target_metric = "speedup";
  req.query.target_ci95 = 0.125;

  const auto parsed = ServiceRequest::parse(req.encode());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->op, ServiceOp::kQuery);
  const auto& s = parsed->query.sweep;
  EXPECT_EQ(s.topologies, req.query.sweep.topologies);
  EXPECT_EQ(s.strategies, req.query.sweep.strategies);
  EXPECT_EQ(s.workloads, req.query.sweep.workloads);
  EXPECT_EQ(s.seeds, req.query.sweep.seeds);
  EXPECT_EQ(s.sample_interval, 50);
  EXPECT_EQ(s.hop_latency, 2);
  EXPECT_EQ(s.sim_threads, 4);
  EXPECT_EQ(s.sim_partitions, 8);
  EXPECT_EQ(parsed->query.metrics, req.query.metrics);
  EXPECT_TRUE(parsed->query.want_csv);
  EXPECT_EQ(parsed->query.target_metric, "speedup");
  EXPECT_DOUBLE_EQ(parsed->query.target_ci95, 0.125);

  // A single-seed axis survives the round trip as an explicit seed, not a
  // replication count (the trailing-comma encoding).
  ServiceRequest one;
  one.op = ServiceOp::kQuery;
  one.query.sweep.seeds = {5};
  const auto p2 = ServiceRequest::parse(one.encode());
  ASSERT_TRUE(p2.has_value());
  EXPECT_EQ(p2->query.sweep.seeds, std::vector<std::uint64_t>{5});

  // Master seed round-trips too (exclusive with target in the *service*,
  // but the protocol carries either).
  ServiceRequest m;
  m.op = ServiceOp::kQuery;
  m.query.sweep.master_seed = 99;
  const auto p3 = ServiceRequest::parse(m.encode());
  ASSERT_TRUE(p3.has_value());
  EXPECT_EQ(p3->query.sweep.master_seed, 99u);
}

TEST(ServiceProtocol, QueryRequestCarriesMultiKeySpecs) {
  ServiceRequest req;
  req.op = ServiceOp::kQuery;
  req.query.sweep.strategies = {"cwn:radius=3,horizon=1", "gm"};
  req.query.sweep.workloads = {"synthetic:seed=1,leafbias=0.5",
                               "fib:9;leaf=2,split=1"};
  const auto parsed = ServiceRequest::parse(req.encode());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->query.sweep.strategies, req.query.sweep.strategies);
  EXPECT_EQ(parsed->query.sweep.workloads, req.query.sweep.workloads);
}

TEST(ServiceProtocol, MalformedRequestsAreRejected) {
  const char* bad[] = {
      "",                          // empty
      "s1",                        // version alone
      "s1 1",                      // no op
      "s0 1 ping",                 // wrong version
      "lp1 1 ping",                // lease protocol, not service
      "s1 x ping",                 // non-numeric seq
      "s1 1 frobnicate",           // unknown op
      "s1 1 ping extra",           // trailing junk on a simple op
      "s1 1 query bogus=1",        // unknown query key
      "s1 1 query topos=",         // empty value
      "s1 1 query seeds=zero",     // malformed seed axis
      "s1 1 query master=0",       // master seed 0 is the off sentinel
      "s1 1 query csv=yes",        // csv must be 0|1
      "s1 1 query target=speedup", // target missing half-width
      "s1 1 query target=speedup:0",  // half-width must be > 0
      "s1 1 query simthreads=0",   // engine threads must be >= 1
  };
  for (const char* payload : bad)
    EXPECT_FALSE(ServiceRequest::parse(payload).has_value()) << payload;
}

TEST(ServiceProtocol, ResponsesRoundTripBytePerfectText) {
  // Free-text bodies (tables, CSV) travel byte-exactly: embedded spaces,
  // pipes, and newlines included — the warm-query byte-identity contract
  // rests on this.
  ServiceResponse table;
  table.seq = 9;
  table.kind = ServiceResponseKind::kTable;
  table.metric = "speedup";
  table.text = "a | b\n--+--\n1 |  2 \n";
  auto parsed = ServiceResponse::parse(table.encode());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->kind, ServiceResponseKind::kTable);
  EXPECT_EQ(parsed->seq, 9u);
  EXPECT_EQ(parsed->metric, "speedup");
  EXPECT_EQ(parsed->text, table.text);

  ServiceResponse stats;
  stats.kind = ServiceResponseKind::kStats;
  stats.total = 10;
  stats.cached = 6;
  stats.scheduled = 4;
  stats.failed = 1;
  stats.rounds = 2;
  stats.wall_us = 123456;
  parsed = ServiceResponse::parse(stats.encode());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->total, 10u);
  EXPECT_EQ(parsed->cached, 6u);
  EXPECT_EQ(parsed->scheduled, 4u);
  EXPECT_EQ(parsed->failed, 1u);
  EXPECT_EQ(parsed->rounds, 2u);
  EXPECT_EQ(parsed->wall_us, 123456u);

  ServiceResponse err;
  err.kind = ServiceResponseKind::kError;
  err.text = "unknown metric 'bogus' (try --metric list)";
  parsed = ServiceResponse::parse(err.encode());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->kind, ServiceResponseKind::kError);
  EXPECT_EQ(parsed->text, err.text);

  for (const auto kind : {ServiceResponseKind::kOk, ServiceResponseKind::kDone,
                          ServiceResponseKind::kProgress}) {
    ServiceResponse rsp;
    rsp.kind = kind;
    parsed = ServiceResponse::parse(rsp.encode());
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(parsed->kind, kind);
  }
}

/// `msg` encodes to exactly `bytes`, and `bytes` parse back to a message
/// that encodes to them again.
template <class Msg>
void expect_golden(const Msg& msg, const std::string& bytes) {
  EXPECT_EQ(msg.encode(), bytes);
  const auto back = Msg::parse(bytes);
  ASSERT_TRUE(back.has_value()) << bytes;
  EXPECT_EQ(back->encode(), bytes);
}

TEST(ServiceProtocol, EncodesGoldenBytes) {
  // Round trips alone would pass a codec that changed the bytes on both
  // sides; these literals pin the wire format itself.
  ServiceResponse rsp;
  rsp.seq = 3;
  rsp.kind = ServiceResponseKind::kOk;
  expect_golden(rsp, "s1 3 ok");
  rsp.kind = ServiceResponseKind::kDone;
  expect_golden(rsp, "s1 3 done");
  rsp.kind = ServiceResponseKind::kError;
  rsp.text = "unknown metric 'bogus'";
  expect_golden(rsp, "s1 3 error unknown metric 'bogus'");
  rsp.kind = ServiceResponseKind::kStatus;
  rsp.text = R"({"phase":"serving"})";
  expect_golden(rsp, R"(s1 3 status {"phase":"serving"})");
  rsp.kind = ServiceResponseKind::kCsv;
  rsp.text = "metric,n\nspeedup,2\n";
  expect_golden(rsp, "s1 3 csv metric,n\nspeedup,2\n");
  rsp.kind = ServiceResponseKind::kTable;
  rsp.metric = "speedup";
  rsp.text = "a | b\n--+--\n1 |  2 \n";
  expect_golden(rsp, "s1 3 table speedup a | b\n--+--\n1 |  2 \n");
  rsp.kind = ServiceResponseKind::kProgress;
  rsp.total = 10;
  rsp.cached = 6;
  rsp.scheduled = 4;
  rsp.completed = 2;
  expect_golden(rsp, "s1 3 progress 10 6 4 2");
  rsp.kind = ServiceResponseKind::kStats;
  rsp.failed = 1;
  rsp.rounds = 2;
  rsp.wall_us = 123456;
  expect_golden(rsp, "s1 3 stats 10 6 4 1 2 123456");

  ServiceRequest req;
  req.seq = 7;
  req.op = ServiceOp::kPing;
  expect_golden(req, "s1 7 ping");
  req.op = ServiceOp::kStatus;
  expect_golden(req, "s1 7 status");
  req.op = ServiceOp::kShutdown;
  expect_golden(req, "s1 7 shutdown");

  // The fully populated query of QueryRequestRoundTripsEveryField.
  req.op = ServiceOp::kQuery;
  req.query.sweep.topologies = {"grid:6x6", "dlm:5:10x10"};
  req.query.sweep.strategies = {"cwn:radius=4", "gm"};
  req.query.sweep.workloads = {"fib:11"};
  req.query.sweep.seeds = {3, 9, 27};
  req.query.sweep.sample_interval = 50;
  req.query.sweep.hop_latency = 2;
  req.query.sweep.sim_threads = 4;
  req.query.sweep.sim_partitions = 8;
  req.query.metrics = {"speedup", "avg_utilization"};
  req.query.want_csv = true;
  req.query.target_metric = "speedup";
  req.query.target_ci95 = 0.125;
  expect_golden(req,
                "s1 7 query topos=grid:6x6,dlm:5:10x10 "
                "strats=cwn:radius=4,gm works=fib:11 seeds=3,9,27 sample=50 "
                "hoplat=2 simthreads=4 simparts=8 "
                "metrics=speedup,avg_utilization csv=1 "
                "target=speedup:0.125");
}

TEST(ServiceProtocol, MalformedResponsesAreRejected) {
  const char* bad[] = {
      "s1 1 nope",
      "s1 1 ok trailing",
      "s1 1 progress 1 2 3",          // one counter short
      "s1 1 progress 1 2 3 x",        // non-numeric counter
      "s1 1 stats 1 2 3 4 5",         // one counter short
      "s1 1 stats 1 2 3 4 5 6 7",     // one counter long
      "s1 1 table",                   // table without a metric
      "s0 1 done",                    // wrong version
  };
  for (const char* payload : bad)
    EXPECT_FALSE(ServiceResponse::parse(payload).has_value()) << payload;
}

// --------------------------------------------------------- query semantics --

TEST(Service, WarmQueryIsAllHitsAndByteIdenticalToAggregate) {
  const auto store = temp_path("warm.jsonl");
  const auto spec = small_sweep();
  prebuild_store(spec, store);

  exp::ServiceOptions opt;
  opt.store = store;
  exp::Service service(opt);
  service.open();
  EXPECT_EQ(service.index().size(), spec.size());

  exp::ServiceQuery q;
  q.sweep = spec;
  q.metrics = {"speedup", "avg_utilization"};
  q.want_csv = true;
  CollectSink sink;
  const auto stats = service.query(q, sink);

  EXPECT_EQ(stats.total, spec.size());
  EXPECT_EQ(stats.cached, spec.size());
  EXPECT_EQ(stats.scheduled, 0u);  // the whole point: zero jobs re-run
  EXPECT_EQ(stats.failed, 0u);
  EXPECT_EQ(stats.rounds, 1u);
  ASSERT_TRUE(sink.got_stats);

  // Byte-identity with a direct aggregation over the same store.
  const auto agg = exp::Aggregator::from_jsonl_files({store});
  const auto groups = agg.summarize();
  ASSERT_EQ(sink.tables.size(), 2u);
  EXPECT_EQ(sink.tables[0].first, "speedup");
  EXPECT_EQ(sink.tables[0].second, exp::Aggregator::to_table(groups, "speedup"));
  EXPECT_EQ(sink.tables[1].second,
            exp::Aggregator::to_table(groups, "avg_utilization"));
  EXPECT_EQ(sink.csv, exp::Aggregator::to_csv(groups));
}

TEST(Service, CsvAndTargetedQueriesSummarizeEveryMetric) {
  // A plain query summarizes only the metrics it renders; a CSV answer
  // and a precision target still read every metric (or one the tables do
  // not name).
  const auto store = temp_path("every_metric.jsonl");
  const auto spec = small_sweep();
  prebuild_store(spec, store);
  const auto groups = exp::Aggregator::from_jsonl_files({store}).summarize();

  exp::ServiceOptions opt;
  opt.store = store;
  exp::Service service(opt);

  exp::ServiceQuery q;
  q.sweep = spec;
  q.metrics = {"speedup"};
  q.want_csv = true;
  CollectSink csv;
  service.query(q, csv);
  ASSERT_EQ(csv.tables.size(), 1u);
  EXPECT_EQ(csv.tables[0].second, exp::Aggregator::to_table(groups, "speedup"));
  EXPECT_EQ(csv.csv, exp::Aggregator::to_csv(groups));

  // The target is on a metric no table renders; a generous interval is
  // met by the cached seeds in one round, so it must have been read.
  q = {};
  q.sweep = spec;
  q.metrics = {"avg_utilization"};
  q.target_metric = "speedup";
  q.target_ci95 = 1e9;
  CollectSink targeted;
  const auto stats = service.query(q, targeted);
  EXPECT_EQ(stats.rounds, 1u);
  EXPECT_EQ(stats.scheduled, 0u);
  ASSERT_EQ(targeted.tables.size(), 1u);
  EXPECT_EQ(targeted.tables[0].second,
            exp::Aggregator::to_table(groups, "avg_utilization"));
}

TEST(Service, ColdQuerySchedulesOnlyTheMissingJobs) {
  const auto store = temp_path("cold.jsonl");
  auto spec = small_sweep();
  prebuild_store(spec, store);

  exp::ServiceOptions opt;
  opt.store = store;
  exp::Service service(opt);

  // Grow the seed axis: 2 of 6 points per strategy are new.
  spec.seeds = {1, 2, 3};
  exp::ServiceQuery q;
  q.sweep = spec;
  CollectSink sink;
  const auto stats = service.query(q, sink);
  EXPECT_EQ(stats.total, 6u);
  EXPECT_EQ(stats.cached, 4u);
  EXPECT_EQ(stats.scheduled, 2u);
  EXPECT_EQ(stats.failed, 0u);

  // The scheduled jobs were committed to the canonical store, so the same
  // query again is now fully warm.
  CollectSink warm;
  const auto again = service.query(q, warm);
  EXPECT_EQ(again.cached, 6u);
  EXPECT_EQ(again.scheduled, 0u);
  ASSERT_FALSE(warm.tables.empty());
  ASSERT_FALSE(sink.tables.empty());
  // And renders the identical bytes the cold query rendered.
  EXPECT_EQ(warm.tables[0].second, sink.tables[0].second);
}

TEST(Service, ColdQueryRerunsATornRecord) {
  const auto store = temp_path("torn.jsonl");
  const auto spec = small_sweep();
  prebuild_store(spec, store);
  const auto reference = exp::Aggregator::to_table(
      exp::Aggregator::from_jsonl_files({store}).summarize(), "speedup");

  // Job 1's record is cut after its "strategy" key by a killed writer,
  // and a resume append newline-terminates the half record: its hash
  // survives on a line that is not a record.
  std::vector<std::string> lines;
  {
    std::ifstream in(store);
    for (std::string line; std::getline(in, line);) lines.push_back(line);
  }
  ASSERT_EQ(lines.size(), 4u);
  {
    std::ofstream out(store, std::ios::binary | std::ios::trunc);
    out << lines[0] << '\n'
        << lines[1].substr(0, lines[1].find("\"strategy\"") + 10);
  }
  const exp::JobQueue queue(spec.build());
  {
    exp::JsonlSink sink(store, /*append=*/true);
    for (std::size_t i = 2; i < 4; ++i)
      sink.write(queue.job(i), exp::parse_jsonl_record(lines[i])->result);
    sink.flush();
  }

  exp::ServiceOptions opt;
  opt.store = store;
  exp::Service service(opt);
  exp::ServiceQuery q;
  q.sweep = spec;
  CollectSink sink;
  const auto stats = service.query(q, sink);
  EXPECT_EQ(stats.cached, 3u);
  EXPECT_EQ(stats.scheduled, 1u);  // the torn job runs again
  EXPECT_EQ(stats.failed, 0u);
  ASSERT_EQ(sink.tables.size(), 1u);
  EXPECT_EQ(sink.tables[0].second, reference);  // with job 1's sample
}

TEST(Service, PrecisionTargetExtendsTheSeedAxis) {
  const auto store = temp_path("target.jsonl");
  const auto spec = small_sweep();
  prebuild_store(spec, store);

  exp::ServiceOptions opt;
  opt.store = store;
  opt.max_target_rounds = 2;
  exp::Service service(opt);

  // An absurdly tight target can never be met: the service must extend
  // the seed axis once per round and stop at the round cap.
  exp::ServiceQuery q;
  q.sweep = spec;
  q.target_metric = "speedup";
  q.target_ci95 = 1e-12;
  CollectSink sink;
  const auto stats = service.query(q, sink);
  EXPECT_EQ(stats.rounds, 3u);          // initial + 2 extension rounds
  EXPECT_EQ(stats.total, 2u * 4u);      // seeds {1,2} grew to {1,2,3,4}
  EXPECT_EQ(stats.cached, spec.size()); // the pre-built points stayed hits
  EXPECT_EQ(stats.scheduled, 4u);       // only the fresh seeds ran

  // A generous target is satisfied by the cached replications alone.
  q.target_ci95 = 1e9;
  CollectSink easy;
  const auto met = service.query(q, easy);
  EXPECT_EQ(met.rounds, 1u);
  EXPECT_EQ(met.scheduled, 0u);
}

TEST(Service, InvalidQueriesThrowConfigError) {
  const auto store = temp_path("invalid.jsonl");
  prebuild_store(small_sweep(), store);
  exp::ServiceOptions opt;
  opt.store = store;
  exp::Service service(opt);

  CollectSink sink;
  exp::ServiceQuery q;
  q.sweep = small_sweep();
  q.metrics = {"bogus"};
  EXPECT_THROW(service.query(q, sink), ConfigError);

  q = {};
  q.sweep = small_sweep();
  q.target_metric = "speedup";
  q.target_ci95 = 0.1;
  q.sweep.master_seed = 5;  // target + master seed: refused
  EXPECT_THROW(service.query(q, sink), ConfigError);

  exp::Service no_store{exp::ServiceOptions{}};
  EXPECT_THROW(no_store.open(), ConfigError);
}

// ----------------------------------------------------------- daemon smoke --

/// In-process daemon on an ephemeral port, serving until stop().
struct ServiceThread {
  explicit ServiceThread(exp::ServiceOptions opt) : svc(std::move(opt)) {
    svc.start();
    th = std::thread([this] { stats = svc.run(); });
  }
  ~ServiceThread() {
    svc.stop();
    if (th.joinable()) th.join();
  }
  void join() {
    if (th.joinable()) th.join();
  }

  exp::Service svc;
  exp::ServiceStats stats;
  std::thread th;
};

util::NetDeadline in_1s() {
  return util::NetClock::now() + std::chrono::seconds(1);
}
util::NetDeadline in_30s() {
  return util::NetClock::now() + std::chrono::seconds(30);
}

util::Socket connect_to(std::uint16_t port) {
  auto sock = util::connect_tcp({"127.0.0.1", port}, in_1s());
  EXPECT_TRUE(sock.valid());
  return sock;
}

std::optional<ServiceResponse> exchange(int fd, const ServiceRequest& req) {
  if (!util::send_frame(fd, req.encode(), in_1s(), exp::kServiceMaxFrameBytes))
    return std::nullopt;
  const auto payload =
      util::recv_frame(fd, in_30s(), exp::kServiceMaxFrameBytes);
  if (!payload) return std::nullopt;
  return ServiceResponse::parse(*payload);
}

TEST(ServiceDaemon, ServesPingStatusQueryAndShutdown) {
  const auto store = temp_path("daemon.jsonl");
  const auto spec = small_sweep();
  prebuild_store(spec, store);

  exp::ServiceOptions opt;
  opt.store = store;
  opt.status_path = temp_path("daemon_status.json");
  ServiceThread daemon(opt);
  ASSERT_GT(daemon.svc.port(), 0);

  auto conn = connect_to(daemon.svc.port());

  ServiceRequest ping;
  ping.seq = 1;
  ping.op = ServiceOp::kPing;
  auto rsp = exchange(conn.fd(), ping);
  ASSERT_TRUE(rsp.has_value());
  EXPECT_EQ(rsp->kind, ServiceResponseKind::kOk);
  EXPECT_EQ(rsp->seq, 1u);

  ServiceRequest status;
  status.seq = 2;
  status.op = ServiceOp::kStatus;
  rsp = exchange(conn.fd(), status);
  ASSERT_TRUE(rsp.has_value());
  EXPECT_EQ(rsp->kind, ServiceResponseKind::kStatus);
  const auto snap = obs::StatusSnapshot::parse(rsp->text);
  ASSERT_TRUE(snap.has_value());
  EXPECT_EQ(snap->phase, "serving");

  // Warm query over the wire: progress then stats/tables then done, with
  // zero jobs scheduled and the table byte-identical to aggregation.
  ServiceRequest query;
  query.seq = 3;
  query.op = ServiceOp::kQuery;
  query.query.sweep = spec;
  ASSERT_TRUE(util::send_frame(conn.fd(), query.encode(), in_1s(),
                               exp::kServiceMaxFrameBytes));
  std::string table;
  exp::QueryStats qstats;
  bool done = false;
  while (!done) {
    const auto payload =
        util::recv_frame(conn.fd(), in_30s(), exp::kServiceMaxFrameBytes);
    ASSERT_TRUE(payload.has_value());
    const auto r = ServiceResponse::parse(*payload);
    ASSERT_TRUE(r.has_value());
    EXPECT_EQ(r->seq, 3u);
    switch (r->kind) {
      case ServiceResponseKind::kTable:
        EXPECT_EQ(r->metric, "speedup");
        table = r->text;
        break;
      case ServiceResponseKind::kStats:
        qstats.total = r->total;
        qstats.cached = r->cached;
        qstats.scheduled = r->scheduled;
        break;
      case ServiceResponseKind::kDone:
        done = true;
        break;
      case ServiceResponseKind::kError:
        FAIL() << "server error: " << r->text;
      default:
        break;
    }
  }
  EXPECT_EQ(qstats.total, spec.size());
  EXPECT_EQ(qstats.cached, spec.size());
  EXPECT_EQ(qstats.scheduled, 0u);
  const auto agg = exp::Aggregator::from_jsonl_files({store});
  EXPECT_EQ(table, exp::Aggregator::to_table(agg.summarize(), "speedup"));

  // An invalid query is answered with an error frame, not a drop.
  ServiceRequest badq;
  badq.seq = 4;
  badq.op = ServiceOp::kQuery;
  badq.query.sweep = spec;
  badq.query.metrics = {"bogus"};
  rsp = exchange(conn.fd(), badq);
  ASSERT_TRUE(rsp.has_value());
  EXPECT_EQ(rsp->kind, ServiceResponseKind::kError);

  ServiceRequest shutdown;
  shutdown.seq = 5;
  shutdown.op = ServiceOp::kShutdown;
  rsp = exchange(conn.fd(), shutdown);
  ASSERT_TRUE(rsp.has_value());
  EXPECT_EQ(rsp->kind, ServiceResponseKind::kOk);
  daemon.join();
  EXPECT_TRUE(daemon.stats.shutdown_requested);
  EXPECT_EQ(daemon.stats.requests, 5u);
  EXPECT_EQ(daemon.stats.queries, 2u);
  EXPECT_EQ(daemon.stats.cache_hits, spec.size());
  EXPECT_EQ(daemon.stats.jobs_scheduled, 0u);
  EXPECT_EQ(daemon.stats.bad_requests, 1u);
}

TEST(ServiceDaemon, StopEndsTheStatusFileAtDone) {
  // stop() is where SIGTERM lands (commands.cpp routes the signal to it):
  // a clean exit without a shutdown request must still end the status
  // file at `done`, not leave a stopped daemon reading `serving`.
  const auto store = temp_path("stop_status.jsonl");
  prebuild_store(small_sweep(), store);
  exp::ServiceOptions opt;
  opt.store = store;
  opt.status_path = temp_path("stop_status.json");
  std::remove(opt.status_path.c_str());
  ServiceThread daemon(opt);
  ASSERT_GT(daemon.svc.port(), 0);
  auto conn = connect_to(daemon.svc.port());
  ServiceRequest ping;
  ping.seq = 1;
  ping.op = ServiceOp::kPing;
  ASSERT_TRUE(exchange(conn.fd(), ping).has_value());

  daemon.svc.stop();
  daemon.join();
  EXPECT_FALSE(daemon.stats.shutdown_requested);
  std::ifstream in(opt.status_path);
  const std::string json((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  EXPECT_NE(json.find("\"phase\":\"done\""), std::string::npos) << json;
}

TEST(ServiceDaemon, MalformedFramesDropTheConnectionOnly) {
  const auto store = temp_path("malformed.jsonl");
  prebuild_store(small_sweep(), store);
  exp::ServiceOptions opt;
  opt.store = store;
  ServiceThread daemon(opt);

  // Garbage on one connection: the server drops it...
  auto bad = connect_to(daemon.svc.port());
  ASSERT_TRUE(util::send_frame(bad.fd(), "lp1 1 acquire", in_1s(),
                               exp::kServiceMaxFrameBytes));
  EXPECT_FALSE(
      util::recv_frame(bad.fd(), in_1s(), exp::kServiceMaxFrameBytes)
          .has_value());

  // ...while a fresh, well-behaved connection is unaffected.
  auto good = connect_to(daemon.svc.port());
  ServiceRequest ping;
  ping.seq = 11;
  ping.op = ServiceOp::kPing;
  const auto rsp = exchange(good.fd(), ping);
  ASSERT_TRUE(rsp.has_value());
  EXPECT_EQ(rsp->kind, ServiceResponseKind::kOk);

  daemon.svc.stop();
  daemon.join();
  EXPECT_EQ(daemon.stats.bad_requests, 1u);
}

TEST(ServiceDaemon, UnknownSpecKeyGetsAnErrorFrame) {
  const auto store = temp_path("badkey.jsonl");
  prebuild_store(small_sweep(), store);
  exp::ServiceOptions opt;
  opt.store = store;
  ServiceThread daemon(opt);

  auto conn = connect_to(daemon.svc.port());
  ServiceRequest q;
  q.seq = 3;
  q.op = ServiceOp::kQuery;
  q.query.sweep = small_sweep();
  q.query.sweep.strategies = {"cwn:radius=3,horizn=1"};
  const auto rsp = exchange(conn.fd(), q);
  ASSERT_TRUE(rsp.has_value());
  EXPECT_EQ(rsp->kind, ServiceResponseKind::kError);
  EXPECT_NE(rsp->text.find("horizon"), std::string::npos) << rsp->text;

  daemon.svc.stop();
  daemon.join();
  EXPECT_EQ(daemon.stats.bad_requests, 1u);
  EXPECT_EQ(daemon.stats.jobs_scheduled, 0u);
}

TEST(ServiceDaemon, RepeatedAxisEntryGetsAnErrorFrame) {
  const auto store = temp_path("repeat.jsonl");
  prebuild_store(small_sweep(), store);
  exp::ServiceOptions opt;
  opt.store = store;
  ServiceThread daemon(opt);

  // Without a master seed the repeated seed names the same two jobs
  // twice: refused before anything is scheduled.
  auto conn = connect_to(daemon.svc.port());
  ServiceRequest q;
  q.seq = 4;
  q.op = ServiceOp::kQuery;
  q.query.sweep = small_sweep();
  q.query.sweep.seeds = {1, 2, 1};
  const auto rsp = exchange(conn.fd(), q);
  ASSERT_TRUE(rsp.has_value());
  EXPECT_EQ(rsp->kind, ServiceResponseKind::kError);
  EXPECT_NE(rsp->text.find("twice"), std::string::npos) << rsp->text;

  daemon.svc.stop();
  daemon.join();
  EXPECT_EQ(daemon.stats.bad_requests, 1u);
  EXPECT_EQ(daemon.stats.jobs_scheduled, 0u);
}

// --------------------------------------------- precision-target diagnostics --

TEST(Service, PrecisionTargetRejectsNaNMetric) {
  // A store whose target metric is NaN must fail the query loudly: NaN
  // poisons every `ci95 > target` comparison into false, which would
  // otherwise report the target as met after round one.
  const auto store = temp_path("nan_target.jsonl");
  core::SweepSpec spec;
  spec.topologies = {"grid:4x4"};
  spec.strategies = {"random"};
  spec.workloads = {"fib:8"};
  spec.seeds = {1, 2};
  fabricate_store(spec, store, std::numeric_limits<double>::quiet_NaN());

  exp::ServiceOptions opt;
  opt.store = store;
  exp::Service service(opt);

  exp::ServiceQuery q;
  q.sweep = spec;
  q.target_metric = "speedup";
  q.target_ci95 = 0.1;
  CollectSink sink;
  try {
    service.query(q, sink);
    FAIL() << "a NaN target metric must throw";
  } catch (const ConfigError& e) {
    EXPECT_NE(std::string(e.what()).find("finite"), std::string::npos)
        << e.what();
  }
}

TEST(Service, PrecisionTargetStopsWhenRoundsCannotProgress) {
  // One pinned sample (ci95 = 0 with n = 1 never satisfies a target) whose
  // extension jobs always fail — the "nonsense" topology parses at run
  // time and throws, so no extension round can ever add a sample. The
  // query must terminate with a diagnostic instead of burning every round.
  const auto store = temp_path("pinned.jsonl");
  core::SweepSpec spec;
  spec.topologies = {"nonsense:9q"};
  spec.strategies = {"random"};
  spec.workloads = {"fib:8"};
  spec.seeds = {1};
  fabricate_store(spec, store, 2.0);

  exp::ServiceOptions opt;
  opt.store = store;
  opt.max_target_rounds = 8;
  exp::Service service(opt);

  exp::ServiceQuery q;
  q.sweep = spec;
  q.target_metric = "speedup";
  q.target_ci95 = 0.5;
  CollectSink sink;
  try {
    service.query(q, sink);
    FAIL() << "a target that cannot make progress must throw";
  } catch (const ConfigError& e) {
    EXPECT_NE(std::string(e.what()).find("progress"), std::string::npos)
        << e.what();
  }
}

// ------------------------------------------------------- daemon concurrency --

/// Drive one query over an already-connected socket: send, then read the
/// whole response stream. Returns false on any transport/parse problem.
struct WireQueryResult {
  std::vector<std::pair<std::string, std::string>> tables;
  exp::QueryStats stats;
  bool done = false;
  bool error = false;
  std::string error_text;
};

bool run_wire_query(int fd, const exp::ServiceQuery& q, std::uint64_t seq,
                    WireQueryResult& out) {
  ServiceRequest req;
  req.seq = seq;
  req.op = ServiceOp::kQuery;
  req.query = q;
  if (!util::send_frame(fd, req.encode(), in_30s(),
                        exp::kServiceMaxFrameBytes))
    return false;
  while (true) {
    const auto payload =
        util::recv_frame(fd, in_30s(), exp::kServiceMaxFrameBytes);
    if (!payload) return false;
    const auto rsp = ServiceResponse::parse(*payload);
    if (!rsp || rsp->seq != seq) return false;
    switch (rsp->kind) {
      case ServiceResponseKind::kTable:
        out.tables.emplace_back(rsp->metric, rsp->text);
        break;
      case ServiceResponseKind::kStats:
        out.stats.total = rsp->total;
        out.stats.cached = rsp->cached;
        out.stats.scheduled = rsp->scheduled;
        out.stats.failed = rsp->failed;
        out.stats.rounds = rsp->rounds;
        break;
      case ServiceResponseKind::kError:
        out.error = true;
        out.error_text = rsp->text;
        return true;
      case ServiceResponseKind::kDone:
        out.done = true;
        return true;
      default:
        break;
    }
  }
}

TEST(ServiceDaemon, ConcurrentWarmAndColdQueriesStayByteIdentical) {
  const auto store = temp_path("concurrent.jsonl");
  const auto spec = small_sweep();
  prebuild_store(spec, store);

  // The reference bytes BEFORE any cold query appends: a warm query names
  // exactly the prebuilt grid points, so later appends (other hashes) must
  // not change its answer.
  const auto ref_agg = exp::Aggregator::from_jsonl_files({store});
  const auto reference =
      exp::Aggregator::to_table(ref_agg.summarize(), "speedup");

  exp::ServiceOptions opt;
  opt.store = store;
  ServiceThread daemon(opt);
  ASSERT_GT(daemon.svc.port(), 0);

  // 4 warm + 4 cold clients at once. Each cold query asks one fresh seed
  // (a job the store does not have), so it schedules exactly one job.
  constexpr int kWarm = 4;
  constexpr int kCold = 4;
  std::vector<WireQueryResult> results(kWarm + kCold);
  // Not vector<bool>: distinct elements must be writable from distinct
  // threads without a shared-word data race.
  std::vector<char> transported(kWarm + kCold, 0);
  std::vector<std::thread> clients;
  for (int i = 0; i < kWarm + kCold; ++i) {
    clients.emplace_back([&, i] {
      auto sock = connect_to(daemon.svc.port());
      if (!sock.valid()) return;
      exp::ServiceQuery q;
      if (i < kWarm) {
        q.sweep = spec;
      } else {
        q.sweep = spec;
        q.sweep.strategies = {"random"};
        q.sweep.seeds = {100u + static_cast<std::uint64_t>(i)};
      }
      transported[static_cast<std::size_t>(i)] = run_wire_query(
          sock.fd(), q, 1000u + static_cast<std::uint64_t>(i),
          results[static_cast<std::size_t>(i)]);
    });
  }
  for (auto& t : clients) t.join();

  for (int i = 0; i < kWarm + kCold; ++i) {
    ASSERT_TRUE(transported[static_cast<std::size_t>(i)]) << "client " << i;
    const auto& r = results[static_cast<std::size_t>(i)];
    ASSERT_TRUE(r.done) << "client " << i << ": " << r.error_text;
    EXPECT_EQ(r.stats.failed, 0u);
    ASSERT_EQ(r.tables.size(), 1u);
    if (i < kWarm) {
      // The concurrency contract: byte-identical to serial aggregation,
      // no matter how many clients were being served.
      EXPECT_EQ(r.tables[0].second, reference) << "warm client " << i;
      EXPECT_EQ(r.stats.cached, spec.size());
      EXPECT_EQ(r.stats.scheduled, 0u);
    } else {
      EXPECT_EQ(r.stats.cached, 0u);
      EXPECT_EQ(r.stats.scheduled, 1u);
    }
  }

  auto conn = connect_to(daemon.svc.port());
  ServiceRequest shutdown;
  shutdown.seq = 9000;
  shutdown.op = ServiceOp::kShutdown;
  const auto rsp = exchange(conn.fd(), shutdown);
  ASSERT_TRUE(rsp.has_value());
  EXPECT_EQ(rsp->kind, ServiceResponseKind::kOk);
  daemon.join();

  // Deterministic accounting across all interleavings.
  EXPECT_EQ(daemon.stats.requests,
            static_cast<std::size_t>(kWarm + kCold) + 1u);
  EXPECT_EQ(daemon.stats.queries, static_cast<std::size_t>(kWarm + kCold));
  EXPECT_EQ(daemon.stats.bad_requests, 0u);
  EXPECT_EQ(daemon.stats.evicted, 0u);
  EXPECT_EQ(daemon.stats.jobs_requested,
            static_cast<std::size_t>(kWarm) * spec.size() +
                static_cast<std::size_t>(kCold));
  EXPECT_EQ(daemon.stats.cache_hits,
            static_cast<std::size_t>(kWarm) * spec.size());
  EXPECT_EQ(daemon.stats.jobs_scheduled, static_cast<std::size_t>(kCold));
}

TEST(ServiceDaemon, ConcurrentColdQueriesForTheSamePointsWriteEachRecordOnce) {
  const auto store = temp_path("same_cold.jsonl");
  std::remove(store.c_str());
  auto spec = small_sweep();
  spec.seeds = {11, 12, 13, 14};  // 8 points, none in the (absent) store

  exp::ServiceOptions opt;
  opt.store = store;
  opt.query_threads = 4;
  opt.job_budget = 3;  // several slices per query, interleaved
  ServiceThread daemon(opt);
  ASSERT_GT(daemon.svc.port(), 0);

  constexpr int kClients = 4;
  std::vector<WireQueryResult> results(kClients);
  std::vector<char> transported(kClients, 0);
  std::vector<std::thread> clients;
  for (int i = 0; i < kClients; ++i) {
    clients.emplace_back([&, i] {
      auto sock = connect_to(daemon.svc.port());
      if (!sock.valid()) return;
      exp::ServiceQuery q;
      q.sweep = spec;
      transported[static_cast<std::size_t>(i)] = run_wire_query(
          sock.fd(), q, 100u + static_cast<std::uint64_t>(i),
          results[static_cast<std::size_t>(i)]);
    });
  }
  for (auto& t : clients) t.join();

  std::size_t scheduled = 0;
  for (int i = 0; i < kClients; ++i) {
    ASSERT_TRUE(transported[static_cast<std::size_t>(i)]) << "client " << i;
    const auto& r = results[static_cast<std::size_t>(i)];
    ASSERT_TRUE(r.done) << "client " << i << ": " << r.error_text;
    EXPECT_EQ(r.stats.failed, 0u);
    ASSERT_EQ(r.tables.size(), 1u);
    EXPECT_EQ(r.tables[0].second, results[0].tables[0].second)
        << "client " << i;
    scheduled += r.stats.scheduled;
  }
  EXPECT_EQ(scheduled, spec.size());

  // Every hash is in the store exactly once.
  std::vector<std::uint64_t> hashes;
  {
    std::ifstream in(store);
    for (std::string line; std::getline(in, line);) {
      const auto rec = exp::parse_jsonl_record(line);
      ASSERT_TRUE(rec.has_value()) << line;
      hashes.push_back(rec->content_hash);
    }
  }
  std::vector<std::uint64_t> want;
  const exp::JobQueue queue(spec.build());
  for (const auto& job : queue.jobs()) want.push_back(job.content_hash);
  std::sort(hashes.begin(), hashes.end());
  std::sort(want.begin(), want.end());
  EXPECT_EQ(hashes, want);
}

TEST(ServiceDaemon, StalledClientIsEvictedWithoutBlockingOthers) {
  // A client that requests a large response and then stops reading must
  // not wedge the daemon: pings on other connections stay fast, and the
  // stalled connection is evicted once its write deadline expires.
  const auto store = temp_path("stall.jsonl");
  core::SweepSpec spec;
  spec.topologies = {"grid:4x4"};
  spec.strategies = {"random"};
  spec.workloads.clear();  // drop the default fib:13, which the loop adds
  for (int i = 1; i <= 80; ++i)
    spec.workloads.push_back("fib:" + std::to_string(i));
  spec.seeds = {1, 2, 3};
  fabricate_store(spec, store);

  exp::ServiceOptions opt;
  opt.store = store;
  opt.write_timeout_ms = 300;
  opt.sndbuf_bytes = 8192;  // bound the kernel's share of the stall
  ServiceThread daemon(opt);
  ASSERT_GT(daemon.svc.port(), 0);

  // Raw socket with a tiny receive buffer (set before connect so the
  // advertised window stays small): the big CSV cannot drain into it.
  const int stalled = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(stalled, 0);
  const int rcvbuf = 4096;
  ::setsockopt(stalled, SOL_SOCKET, SO_RCVBUF, &rcvbuf, sizeof(rcvbuf));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(daemon.svc.port());
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::connect(stalled, reinterpret_cast<sockaddr*>(&addr),
                      sizeof(addr)),
            0);
  ServiceRequest big;
  big.seq = 77;
  big.op = ServiceOp::kQuery;
  big.query.sweep = spec;
  big.query.want_csv = true;  // ~hundreds of KiB of response
  ASSERT_TRUE(util::send_frame(stalled, big.encode(), in_1s(),
                               exp::kServiceMaxFrameBytes));
  // ... and never read a byte.

  // Meanwhile a well-behaved connection keeps getting served: pings
  // round-trip within their 1 s deadline and a warm query still answers.
  auto other = connect_to(daemon.svc.port());
  for (std::uint64_t i = 0; i < 10; ++i) {
    ServiceRequest ping;
    ping.seq = 100 + i;
    ping.op = ServiceOp::kPing;
    const auto rsp = exchange(other.fd(), ping);
    ASSERT_TRUE(rsp.has_value()) << "ping " << i << " while a client stalls";
    EXPECT_EQ(rsp->kind, ServiceResponseKind::kOk);
    std::this_thread::sleep_for(std::chrono::milliseconds(60));
  }
  exp::ServiceQuery warm;
  warm.sweep = spec;
  warm.sweep.workloads = {"fib:1"};
  WireQueryResult wr;
  ASSERT_TRUE(run_wire_query(other.fd(), warm, 200, wr));
  ASSERT_TRUE(wr.done) << wr.error_text;
  EXPECT_EQ(wr.stats.cached, 3u);

  daemon.svc.stop();
  daemon.join();
  ::close(stalled);
  EXPECT_EQ(daemon.stats.evicted, 1u);
}

TEST(ServiceDaemon, SteadilyArrivingRequestIsNotEvicted) {
  // read_timeout_ms bounds a peer's silence, not a frame's transit time:
  // a 13-byte ping sent in four chunks 200 ms apart (600 ms in all) is
  // answered under a 300 ms read timeout, and nobody is evicted.
  const auto store = temp_path("trickle.jsonl");
  prebuild_store(small_sweep(), store);
  exp::ServiceOptions opt;
  opt.store = store;
  opt.read_timeout_ms = 300;
  ServiceThread daemon(opt);
  ASSERT_GT(daemon.svc.port(), 0);

  auto conn = connect_to(daemon.svc.port());
  ServiceRequest ping;
  ping.seq = 9;
  ping.op = ServiceOp::kPing;
  const std::string wire = util::frame_bytes(ping.encode());
  ASSERT_EQ(wire.size(), 13u);
  for (std::size_t off = 0; off < wire.size(); off += 4) {
    if (off > 0) std::this_thread::sleep_for(std::chrono::milliseconds(200));
    const std::string chunk = wire.substr(off, 4);
    ASSERT_EQ(::send(conn.fd(), chunk.data(), chunk.size(), MSG_NOSIGNAL),
              static_cast<ssize_t>(chunk.size()));
  }
  const auto payload =
      util::recv_frame(conn.fd(), in_1s(), exp::kServiceMaxFrameBytes);
  ASSERT_TRUE(payload.has_value()) << "the trickled ping was not answered";
  const auto rsp = ServiceResponse::parse(*payload);
  ASSERT_TRUE(rsp.has_value());
  EXPECT_EQ(rsp->kind, ServiceResponseKind::kOk);
  EXPECT_EQ(rsp->seq, 9u);

  daemon.svc.stop();
  daemon.join();
  EXPECT_EQ(daemon.stats.evicted, 0u);
}

TEST(ServiceDaemon, StopMidQueryEndsTheStreamCleanly) {
  // SIGTERM while a query is in flight (commands.cpp routes the signal to
  // Service::stop()) must leave the client with a parseable stream ending
  // in `done` or `error` — never a torn half-frame.
  const auto store = temp_path("sigterm.jsonl");
  const auto spec = small_sweep();
  prebuild_store(spec, store);

  exp::ServiceOptions opt;
  opt.store = store;
  opt.job_budget = 1;  // many short slices: stop lands mid-query
  ServiceThread daemon(opt);
  ASSERT_GT(daemon.svc.port(), 0);

  auto conn = connect_to(daemon.svc.port());
  ServiceRequest req;
  req.seq = 55;
  req.op = ServiceOp::kQuery;
  req.query.sweep = spec;
  req.query.sweep.seeds = {301, 302, 303, 304, 305, 306};  // all cold
  ASSERT_TRUE(util::send_frame(conn.fd(), req.encode(), in_1s(),
                               exp::kServiceMaxFrameBytes));
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  daemon.svc.stop();

  // Every frame until EOF must parse; the stream must end with done or a
  // shutdown error, whichever the drain raced to.
  bool done = false, error = false;
  while (true) {
    const auto payload =
        util::recv_frame(conn.fd(), in_30s(), exp::kServiceMaxFrameBytes);
    if (!payload) break;  // EOF after the final frame
    const auto rsp = ServiceResponse::parse(*payload);
    ASSERT_TRUE(rsp.has_value()) << "torn or corrupt frame after stop";
    EXPECT_EQ(rsp->seq, 55u);
    if (rsp->kind == ServiceResponseKind::kDone) done = true;
    if (rsp->kind == ServiceResponseKind::kError) {
      error = true;
      EXPECT_EQ(rsp->text, exp::kServiceShuttingDown);
    }
  }
  EXPECT_TRUE(done || error) << "stream ended without done or error";
  daemon.join();
}

}  // namespace
}  // namespace oracle
