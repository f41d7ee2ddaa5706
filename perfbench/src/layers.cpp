// Per-layer micro timings shared by every traced pass. Each one times a
// public entry point of one layer from here; nothing inside src/ is
// instrumented for the benchmark.

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <random>
#include <set>
#include <thread>

#include "common.hpp"
#include "exp/aggregate.hpp"
#include "exp/batch.hpp"
#include "exp/job_queue.hpp"
#include "exp/result_sink.hpp"
#include "exp/service.hpp"
#include "exp/service_protocol.hpp"
#include "exp/store_index.hpp"
#include "topo/factory.hpp"
#include "util/net.hpp"

namespace perfbench {

namespace {

namespace fs = std::filesystem;
namespace ox = oracle::exp;
namespace topo = oracle::topo;

volatile std::uint64_t g_sink = 0;

double us_since(Clock::time_point t0) { return seconds_since(t0) * 1e6; }

/// Repeat `fn` `reps` times; the median wall in microseconds.
template <typename Fn>
double median_us(std::size_t reps, Fn&& fn) {
  std::vector<double> v;
  for (std::size_t i = 0; i < reps; ++i) {
    const auto t0 = Clock::now();
    fn();
    v.push_back(us_since(t0));
  }
  return median(v);
}

void measure_topology(Result& res, const std::vector<std::string>& specs) {
  // Build cost of every distinct workload topology from a cold cache.
  const std::set<std::string> distinct(specs.begin(), specs.end());
  double build_us = 0;
  for (const auto& spec : distinct)
    build_us += median_us(3, [&] {
      topo::clear_topology_cache();
      (void)topo::make_topology_shared(spec);
    });
  res.layers.emplace_back("topo.build_ms", build_us / 1e3);

  // Next-hop lookups on a fixed pair sample: the BFS tables the paper-size
  // machines use, and the closed forms past the table cap.
  constexpr std::size_t kLookups = 1 << 21;
  auto time_lookups = [&](const std::vector<std::string>& on, auto&& lookup) {
    double ns = 0;
    std::uint64_t sink = 0;
    for (const auto& spec : on) {
      const auto shared = topo::make_topology_shared(spec);
      const std::uint32_t n = shared.topology->num_nodes();
      std::mt19937_64 rng(42);
      std::vector<std::pair<std::uint32_t, std::uint32_t>> pairs(4096);
      for (auto& p : pairs)
        p = {static_cast<std::uint32_t>(rng() % n),
             static_cast<std::uint32_t>(rng() % n)};
      const auto t0 = Clock::now();
      for (std::size_t i = 0; i < kLookups; ++i) {
        const auto& [a, b] = pairs[i & 4095];
        sink += lookup(shared, a, b);
      }
      ns += seconds_since(t0) * 1e9 / kLookups;
    }
    g_sink = sink;  // keeps the lookups observable
    return ns / static_cast<double>(on.size());
  };
  res.layers.emplace_back(
      "topo.next_hop_table_ns",
      time_lookups({"grid:10x10", "dlm:5:10x10"},
                   [](const topo::SharedTopology& s, std::uint32_t a,
                      std::uint32_t b) { return s.routing->next_hop(a, b); }));
  res.layers.emplace_back(
      "topo.next_hop_analytic_ns",
      time_lookups({"grid:10x10", "hypercube:17"},
                   [](const topo::SharedTopology& s, std::uint32_t a,
                      std::uint32_t b) {
                     return s.topology->analytic_next_hop(a, b);
                   }));
}

void measure_sink(Result& res, const std::string& dir,
                  const FixtureLines& fixture) {
  // One record appended and fsynced per flush, as the ordered commit does.
  const auto rec = ox::parse_jsonl_record(fixture.lines().front());
  const ox::JobQueue queue(fixture_spec().build());
  ox::JsonlSink sink(dir + "/sink.jsonl");
  std::vector<double> us;
  for (std::size_t i = 0; i < 200; ++i) {
    sink.write(queue.job(i), rec->result);
    const auto t0 = Clock::now();
    sink.flush();
    us.push_back(us_since(t0));
  }
  res.layers.emplace_back("exp.sink.fsync_us_p50", percentile(us, 50));
  res.layers.emplace_back("exp.sink.fsync_us_p99", percentile(us, 99));
}

void measure_store(Result& res, const Options& opt, const std::string& dir,
                   const std::string& fixture_path,
                   const FixtureLines& fixture) {
  const std::string copy = dir + "/store.jsonl";
  fs::copy_file(fixture_path, copy, fs::copy_options::overwrite_existing);
  const double mb = static_cast<double>(fs::file_size(copy)) / 1e6;

  res.layers.emplace_back("exp.store_index.scan_mb_per_s",
                          mb / (median_us(3, [&] {
                                  ox::StoreIndex idx;
                                  idx.add_store(copy);
                                }) / 1e6));

  ox::StoreIndex index;
  index.add_store(copy);
  {
    std::vector<std::uint64_t> hashes;
    for (const auto& line : fixture.lines())
      hashes.push_back(ox::parse_jsonl_record(line)->content_hash);
    std::mt19937_64 rng(opt.seed);
    std::size_t bytes = 0;
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < 2000; ++i)
      bytes += index.fetch_line(hashes[rng() % hashes.size()])->size();
    res.layers.emplace_back("exp.store_index.fetch_us", us_since(t0) / 2000);
    res.check(bytes > 0, "store_index: fetch_line returned nothing");
  }

  res.layers.emplace_back(
      "exp.aggregate.add_line_us", median_us(3, [&] {
                                     ox::Aggregator agg;
                                     for (const auto& l : fixture.lines())
                                       agg.add_line(l);
                                   }) / static_cast<double>(fixture.lines().size()));
  {
    const auto [t, s0] = warm_windows(opt.seed, 1).front();
    ox::Aggregator agg;
    const ox::JobQueue q(warm_spec(t, s0).build());
    for (const auto& job : q.jobs()) agg.add_line(*index.fetch_line(job.content_hash));
    const auto groups = agg.summarize();
    std::size_t bytes = 0;
    res.layers.emplace_back("exp.aggregate.render_us", median_us(200, [&] {
                              bytes += ox::Aggregator::to_table(groups, "speedup").size();
                            }));
    res.check(bytes > 0, "aggregate: empty table");
  }

  res.layers.emplace_back("exp.batch.resume_scan_ms", median_us(3, [&] {
                            res.check(ox::load_completed_hashes(copy).size() ==
                                          fixture.lines().size(),
                                      "load_completed_hashes: wrong count");
                          }) / 1e3);

  // Refresh after a 16-record append — what one cold query slice costs the
  // index. The appended records are new jobs, simulated once here.
  {
    oracle::exp::BatchOptions bo;
    bo.exec.workers = opt.nproc;
    bo.jsonl_path = dir + "/fresh.jsonl";
    bo.collect = false;
    auto spec = fixture_spec();
    spec.topologies = {"grid:6x6"};
    spec.strategies = {"cwn"};
    spec.seeds = seed_range(900'001, 30 * 16);
    (void)ox::run_batch(spec.build(), bo);
    std::vector<std::string> fresh;
    {
      std::ifstream in(bo.jsonl_path);
      std::string line;
      while (std::getline(in, line)) fresh.push_back(line);
    }
    std::vector<double> ms;
    std::ofstream out(copy, std::ios::app | std::ios::binary);
    for (std::size_t r = 0; r + 16 <= fresh.size(); r += 16) {
      for (std::size_t i = r; i < r + 16; ++i) out << fresh[i] << '\n';
      out.flush();
      const auto t0 = Clock::now();
      const std::size_t added = index.refresh();
      ms.push_back(seconds_since(t0) * 1e3);
      res.check(added == 16, "store_index: refresh missed appended records");
    }
    res.layers.emplace_back("exp.store_index.refresh_ms", median(ms));
  }
}

/// Collects the one table a warm query renders.
class TableSink : public ox::ServiceSink {
 public:
  void on_table(const std::string&, const std::string& table) override {
    table_ = table;
  }
  void on_stats(const ox::QueryStats& st) override { stats_ = st; }
  std::string table_;
  ox::QueryStats stats_;
};

void measure_service(Result& res, const Options& opt, const std::string& dir,
                     const std::string& fixture_path,
                     const FixtureLines& fixture) {
  const std::string copy = dir + "/service.jsonl";
  fs::copy_file(fixture_path, copy, fs::copy_options::overwrite_existing);
  ox::ServiceOptions so;
  so.store = copy;
  so.exec_threads = opt.nproc;
  ox::Service service(so);
  service.open();

  const auto windows = warm_windows(opt.seed, 16);
  std::vector<std::string> refs;
  std::vector<ox::ServiceQuery> queries;
  for (const auto& [t, s0] : windows) {
    ox::ServiceQuery q;
    q.sweep = warm_spec(t, s0);
    refs.push_back(fixture.reference_table(q.sweep));
    queries.push_back(q);
  }
  std::vector<double> us;
  bool identical = true;
  for (std::size_t i = 0; i < 200; ++i) {
    TableSink sink;
    const auto t0 = Clock::now();
    service.query(queries[i % queries.size()], sink);
    us.push_back(us_since(t0));
    identical = identical && sink.table_ == refs[i % refs.size()] &&
                sink.stats_.scheduled == 0;
  }
  res.check(identical, "in-process Service::query: warm table mismatch");
  res.layers.emplace_back("exp.service.query_us_p50", percentile(us, 50));
  res.layers.emplace_back("exp.service.query_us_p99", percentile(us, 99));

  // Codec: one query request and one table response, encoded and parsed.
  {
    ox::ServiceRequest req;
    req.seq = 7;
    req.op = ox::ServiceOp::kQuery;
    req.query = queries.front();
    ox::ServiceResponse rsp;
    rsp.seq = 7;
    rsp.kind = ox::ServiceResponseKind::kTable;
    rsp.metric = "speedup";
    rsp.text = refs.front();
    bool round_trip = true;
    res.layers.emplace_back("exp.service_protocol.codec_us",
                            median_us(2000, [&] {
                              const auto a = ox::ServiceRequest::parse(req.encode());
                              const auto b = ox::ServiceResponse::parse(rsp.encode());
                              round_trip = round_trip && a && b && b->text == rsp.text;
                            }));
    res.check(round_trip, "service_protocol: codec round trip failed");
  }

  // Frame round trip over loopback TCP with a table-sized payload.
  {
    namespace net = oracle::util;
    auto listener = net::listen_tcp({"127.0.0.1", 0});
    const std::uint16_t port = net::local_port(listener.fd());
    auto deadline = [] { return net::NetClock::now() + std::chrono::seconds(10); };
    auto client = net::connect_tcp({"127.0.0.1", port}, deadline());
    auto server = net::accept_tcp(listener.fd());
    constexpr std::size_t kRounds = 2000;
    std::thread echo([&] {
      for (std::size_t i = 0; i < kRounds; ++i) {
        const auto f = net::recv_frame(server.fd(), deadline(), ox::kServiceMaxFrameBytes);
        if (!f || !net::send_frame(server.fd(), *f, deadline(), ox::kServiceMaxFrameBytes))
          return;
      }
    });
    const std::string payload = refs.front();
    std::vector<double> rtt;
    bool ok = true;
    for (std::size_t i = 0; i < kRounds && ok; ++i) {
      const auto t0 = Clock::now();
      ok = net::send_frame(client.fd(), payload, deadline(), ox::kServiceMaxFrameBytes);
      const auto back =
          ok ? net::recv_frame(client.fd(), deadline(), ox::kServiceMaxFrameBytes)
             : std::nullopt;
      ok = ok && back && *back == payload;
      rtt.push_back(us_since(t0));
    }
    echo.join();
    res.check(ok, "util::net: frame echo failed");
    res.layers.emplace_back("util.net.frame_rtt_us", median(rtt));
  }
}

}  // namespace

void measure_common_layers(Result& res, const Options& opt,
                           const std::string& fixture_path,
                           const std::vector<std::string>& topologies) {
  const std::string dir = opt.out_dir + "/layers";
  make_dirs(dir);
  const FixtureLines fixture(fixture_path);
  measure_topology(res, topologies);
  measure_sink(res, dir, fixture);
  measure_store(res, opt, dir, fixture_path, fixture);
  measure_service(res, opt, dir, fixture_path, fixture);
  remove_tree(dir);
}

}  // namespace perfbench
