// serve_rw: the resident daemon (`oracle_batch serve`) over a fresh copy of
// the 9,600-record fixture store, under a closed loop from this process:
// nproc - 1 reader connections send warm 256-point queries (windows drawn
// from the workload seed) and one writer connection sends cold queries
// that name 16 never-used seeds each, so every cold query appends and
// fsyncs 16 records, refreshes the index exclusively, and rescans the
// store. Reads share one StoreIndex with those writes.

#include <fcntl.h>
#include <signal.h>
#include <unistd.h>

#include <atomic>
#include <filesystem>
#include <memory>
#include <regex>
#include <thread>

#include "common.hpp"
#include "exp/service_protocol.hpp"
#include "util/net.hpp"

namespace perfbench {

namespace {

namespace fs = std::filesystem;
namespace ox = oracle::exp;
namespace net = oracle::util;

net::NetDeadline in_seconds(int s) {
  return net::NetClock::now() + std::chrono::seconds(s);
}

/// `oracle_batch serve` on an ephemeral port.
class Daemon {
 public:
  Daemon(const Options& opt, const std::string& store,
         const std::string& trace_path)
      : log_(opt.out_dir + "/daemon.log") {
    std::vector<std::string> argv = {opt.oracle_batch, "serve",
                                     "--store",        store,
                                     "--listen",       "127.0.0.1:0",
                                     "--log-level",    "warn"};
    if (!trace_path.empty()) {
      argv.push_back("--trace");
      argv.push_back(trace_path);
    }
    child_ = std::make_unique<Child>(argv, log_);
    std::string line;
    // "serving store S (N cached record(s) ...) on HOST:PORT"
    if (child_->read_line(line, 60)) {
      const auto colon = line.rfind(':');
      if (colon != std::string::npos)
        port_ = static_cast<std::uint16_t>(std::stoul(line.substr(colon + 1)));
    }
  }

  std::uint16_t port() const { return port_; }

  /// SIGTERM, drain, and wait. Returns false on a nonzero exit; `evicted`
  /// gets the daemon's final eviction count.
  bool stop(std::size_t& evicted) {
    peak_rss_mb_ = child_->peak_rss_mb();
    child_->signal(SIGTERM);
    const std::string rest = child_->read_rest(60);
    const int code = child_->wait(60);
    static const std::regex re("([0-9]+) evicted");
    std::smatch m;
    evicted = std::regex_search(rest, m, re) ? std::stoull(m[1].str()) : 0;
    return code == 0;
  }

  const std::string& log() const { return log_; }
  /// The daemon's peak resident set, read when stop() began.
  double peak_rss_mb() const { return peak_rss_mb_; }

 private:
  std::string log_;
  double peak_rss_mb_ = 0;
  std::unique_ptr<Child> child_;
  std::uint16_t port_ = 0;
};

struct Answer {
  bool ok = false;
  std::string table;
  std::uint64_t scheduled = 0;
  std::uint64_t failed = 0;
};

/// One query over one connection: request frame out, frames back to done.
Answer ask(int fd, const core::SweepSpec& spec, std::uint64_t seq) {
  Answer a;
  ox::ServiceRequest req;
  req.seq = seq;
  req.op = ox::ServiceOp::kQuery;
  req.query.sweep = spec;
  if (!net::send_frame(fd, req.encode(), in_seconds(60),
                       ox::kServiceMaxFrameBytes))
    return a;
  while (true) {
    const auto payload =
        net::recv_frame(fd, in_seconds(60), ox::kServiceMaxFrameBytes);
    if (!payload) return a;
    const auto rsp = ox::ServiceResponse::parse(*payload);
    if (!rsp || rsp->seq != seq || rsp->kind == ox::ServiceResponseKind::kError)
      return a;
    if (rsp->kind == ox::ServiceResponseKind::kTable) a.table = rsp->text;
    if (rsp->kind == ox::ServiceResponseKind::kStats) {
      a.scheduled = rsp->scheduled;
      a.failed = rsp->failed;
    }
    if (rsp->kind == ox::ServiceResponseKind::kDone) {
      a.ok = true;
      return a;
    }
  }
}

struct Windows {
  std::vector<core::SweepSpec> specs;
  std::vector<std::string> refs;
};

struct Load {
  std::vector<double> warm_ms;
  std::vector<double> cold_ms;
  std::size_t bad_warm = 0;
  std::size_t bad_cold = 0;
  double wall_s = 0;
};

/// The closed loop: readers and one writer until `seconds` pass.
/// `cold_next` numbers cold queries across phases so seeds stay unused.
Load drive(const Options& opt, std::uint16_t port, const Windows& w,
           double seconds, std::atomic<std::uint64_t>& cold_next) {
  const std::size_t readers = std::max(1u, opt.nproc - 1);
  const std::uint64_t cold_base = 1'000'000 + (opt.seed % 100'000) * 100'000;
  Load load;
  std::vector<std::vector<double>> warm(readers);
  std::vector<std::size_t> bad(readers, 0);
  std::vector<double> cold;
  std::size_t bad_cold = 0;
  const auto t0 = Clock::now();
  const auto until = t0 + std::chrono::duration<double>(seconds);

  std::vector<std::thread> threads;
  for (std::size_t r = 0; r < readers; ++r) {
    threads.emplace_back([&, r] {
      auto sock = net::connect_tcp({"127.0.0.1", port}, in_seconds(30));
      for (std::size_t k = 0; sock.valid() && Clock::now() < until; ++k) {
        const std::size_t i = (r + k * readers) % w.specs.size();
        const auto q0 = Clock::now();
        const Answer a = ask(sock.fd(), w.specs[i], k + 1);
        warm[r].push_back(seconds_since(q0) * 1e3);
        if (!a.ok || a.table != w.refs[i] || a.scheduled != 0) {
          ++bad[r];
          if (!a.ok) break;  // the connection is unusable
        }
      }
      if (!sock.valid()) ++bad[r];
    });
  }
  threads.emplace_back([&] {
    static const char* kStrategies[] = {"cwn", "acwn", "gm", "random"};
    auto sock = net::connect_tcp({"127.0.0.1", port}, in_seconds(30));
    if (!sock.valid()) ++bad_cold;
    while (sock.valid() && Clock::now() < until) {
      const std::uint64_t k = cold_next++;
      core::SweepSpec spec = fixture_spec();
      spec.topologies = {spec.topologies[k % 3]};
      spec.strategies = {kStrategies[(k / 3) % 4]};
      spec.seeds = seed_range(cold_base + 16 * k, 16);
      const auto q0 = Clock::now();
      const Answer a = ask(sock.fd(), spec, k + 1);
      cold.push_back(seconds_since(q0) * 1e3);
      if (!a.ok || a.scheduled != 16 || a.failed != 0) {
        ++bad_cold;
        if (!a.ok) break;
      }
    }
  });
  for (auto& t : threads) t.join();
  load.wall_s = seconds_since(t0);
  for (std::size_t r = 0; r < readers; ++r) {
    load.warm_ms.insert(load.warm_ms.end(), warm[r].begin(), warm[r].end());
    load.bad_warm += bad[r];
  }
  load.cold_ms = std::move(cold);
  load.bad_cold = bad_cold;
  return load;
}

void account(Result& res, const Load& load) {
  res.attempted += load.warm_ms.size() + load.cold_ms.size();
  res.failed += load.bad_warm + load.bad_cold;
  res.check(load.bad_warm == 0,
            oracle::strfmt("%zu warm queries failed or mismatched the "
                           "reference table", load.bad_warm));
  res.check(load.bad_cold == 0,
            oracle::strfmt("%zu cold queries did not report 16 scheduled",
                           load.bad_cold));
  res.check(!load.warm_ms.empty() && !load.cold_ms.empty(),
            "a load class answered no query");
}

void stop_daemon(Result& res, Daemon& d) {
  std::size_t evicted = 0;
  res.check(d.stop(evicted), "daemon exited nonzero; see " + d.log());
  res.failed += evicted;
  res.check(evicted == 0, oracle::strfmt("daemon evicted %zu connections",
                                         evicted));
}

}  // namespace

Result run_serve_rw(const Options& opt) {
  Result res;
  const std::string fixture = ensure_fixture(opt);
  Windows w;
  {
    const FixtureLines lines(fixture);
    for (const auto& [t, s0] : warm_windows(opt.seed, 48)) {
      w.specs.push_back(warm_spec(t, s0));
      w.refs.push_back(lines.reference_table(w.specs.back()));
    }
  }
  const std::string store = opt.out_dir + "/store.jsonl";
  fs::copy_file(fixture, store, fs::copy_options::overwrite_existing);
  // The daemon maps the store to index it, and mapped page-cache pages
  // count as its resident set. Start every run from an uncached copy, so
  // that count does not depend on how the copy was written.
  {
    const int fd = ::open(store.c_str(), O_RDONLY);
    res.check(fd >= 0 && ::fdatasync(fd) == 0 &&
                  ::posix_fadvise(fd, 0, 0, POSIX_FADV_DONTNEED) == 0,
              "cannot drop the store copy from the page cache");
    if (fd >= 0) ::close(fd);
  }

  // Set-up: daemon start, store index scan, first (warm) answer; seven
  // starts, the last daemon carries the load.
  std::vector<double> setups;
  std::vector<double> setup_rss;
  std::unique_ptr<Daemon> daemon;
  for (int i = 0; i < 7; ++i) {
    if (daemon) {
      stop_daemon(res, *daemon);
      setup_rss.push_back(daemon->peak_rss_mb());
    }
    const auto t0 = Clock::now();
    daemon = std::make_unique<Daemon>(opt, store, "");
    auto sock = net::connect_tcp({"127.0.0.1", daemon->port()}, in_seconds(30));
    const Answer a = sock.valid() ? ask(sock.fd(), w.specs[0], 1) : Answer{};
    setups.push_back(seconds_since(t0));
    res.attempted += 1;
    if (!a.ok || a.table != w.refs[0]) {
      res.failed += 1;
      res.check(false, "daemon's first answer is wrong or missing");
    }
  }

  std::atomic<std::uint64_t> cold_next{0};
  const double phase_s = opt.trace ? opt.seconds / 2 : opt.seconds;
  const Load load = drive(opt, daemon->port(), w, phase_s, cold_next);
  stop_daemon(res, *daemon);
  const double loaded_rss_mb = daemon->peak_rss_mb();
  daemon.reset();
  account(res, load);

  const double warm_qps = static_cast<double>(load.warm_ms.size()) / load.wall_s;
  const double warm_p50 = percentile(load.warm_ms, 50);
  res.context.emplace_back("warm_queries", load.warm_ms.size());
  res.context.emplace_back("cold_queries", load.cold_ms.size());
  const std::vector<std::pair<std::string, double>> serve = {
      {"serve.warm_qps", warm_qps},
      {"serve.warm_p99_ms", percentile(load.warm_ms, 99)},
      {"serve.cold_p50_ms", percentile(load.cold_ms, 50)},
      {"serve.cold_p90_ms", percentile(load.cold_ms, 90)}};

  if (!opt.trace) {
    res.e2e.emplace_back("setup_s", median(setups));
    // The resident cost of serving the store: a daemon that indexed it and
    // answered. The peak under load also follows which daemon threads
    // allocated where, and varies by ~25% run to run.
    res.e2e.emplace_back("peak_rss_mb", median(setup_rss));
    res.context.emplace_back("loaded_daemon_rss_mb", loaded_rss_mb);
    res.e2e.emplace_back("jobs_per_s",
                         16.0 * static_cast<double>(load.cold_ms.size()) /
                             load.wall_s);
    res.e2e.emplace_back("request_p50_ms", warm_p50);
    for (const auto& kv : serve) res.context.push_back(kv);
    return res;
  }

  for (const auto& kv : serve) res.layers.push_back(kv);
  const std::string trace = opt.out_dir + "/trace.json";
  daemon = std::make_unique<Daemon>(opt, store, trace);
  const Load traced = drive(opt, daemon->port(), w, phase_s, cold_next);
  stop_daemon(res, *daemon);
  account(res, traced);
  res.traces.push_back(trace);
  const std::size_t dropped = dropped_in_log(read_file(daemon->log()));
  res.context.emplace_back("wall_s", traced.wall_s);
  res.context.emplace_back("workers", opt.nproc);
  res.layers.emplace_back("obs.trace_overhead",
                          percentile(traced.warm_ms, 50) / warm_p50);
  res.layers.emplace_back("obs.trace_dropped", static_cast<double>(dropped));
  res.check(dropped == 0, oracle::strfmt("trace dropped %zu events", dropped));
  add_lb_metrics(res, store);
  measure_common_layers(res, opt, fixture, fixture_spec().topologies);
  return res;
}

}  // namespace perfbench
