// Observability-layer tests: tracer buffering and zero-cost-off behavior,
// Chrome-trace serialization and balanced span nesting, deterministic
// multi-file merge (including a killed worker's torn tail), status-file
// round-trips, per-job wall-time statistics, and the progress ticker's
// TTY/non-TTY rendering.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/presets.hpp"
#include "core/simulator.hpp"
#include "core/sweep.hpp"
#include "exp/executor.hpp"
#include "exp/job_queue.hpp"
#include "exp/result_sink.hpp"
#include "obs/json_lint.hpp"
#include "obs/status.hpp"
#include "obs/trace.hpp"

namespace oracle {
namespace {

std::string temp_path(const std::string& name) {
  return testing::TempDir() + name;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

/// Scoped tracer enable: tests must never leak an enabled tracer into
/// other tests of this binary (it is process-global).
struct ScopedTracer {
  explicit ScopedTracer(std::uint32_t pid, const char* name,
                        std::size_t capacity = 1 << 12) {
    obs::Tracer::enable(pid, name, capacity);
  }
  ~ScopedTracer() { obs::Tracer::disable(); }
};

std::vector<core::ExperimentConfig> tiny_sweep(std::size_t seeds) {
  core::ExperimentConfig base = core::paper::base_config();
  base.topology = "grid:3x3";
  base.workload = "fib:8";
  core::SweepBuilder sweep(base);
  sweep.strategies({"random"});
  std::vector<std::uint64_t> seed_list;
  for (std::uint64_t s = 1; s <= seeds; ++s) seed_list.push_back(s);
  sweep.seeds(seed_list);
  return sweep.build();
}

// ------------------------------------------------------------ Tracer core --

TEST(Tracer, DisabledTracerBuffersNothing) {
  ASSERT_FALSE(obs::Tracer::enabled());
  {
    obs::Span span("test", "noop", "arg", 1);
    obs::instant("test", "tick");
    obs::counter("test", "count", "value", 42);
  }
  EXPECT_EQ(obs::Tracer::buffered(), 0u);
  EXPECT_EQ(obs::Tracer::dropped(), 0u);
}

TEST(Tracer, SpansInstantsAndCountersAreBuffered) {
  ScopedTracer tracer(0, "test");
  {
    obs::Span outer("test", "outer", "idx", 7);
    obs::Span inner("test", "inner");
    obs::instant("test", "mark", "slot", 3);
    obs::counter("test", "gauge", "value", 10);
  }
  EXPECT_EQ(obs::Tracer::buffered(), 4u);
  obs::Tracer::clear();
  EXPECT_EQ(obs::Tracer::buffered(), 0u);
}

TEST(Tracer, OverflowDropsInsteadOfGrowing) {
  ScopedTracer tracer(0, "test", /*capacity=*/16);  // 16 = enable()'s floor
  for (int i = 0; i < 48; ++i) obs::instant("test", "tick");
  EXPECT_EQ(obs::Tracer::buffered(), 16u);
  EXPECT_EQ(obs::Tracer::dropped(), 32u);
}

TEST(Tracer, EventLineRoundTrips) {
  obs::TraceEvent ev;
  ev.name = "job";
  ev.cat = "exec";
  ev.ph = 'X';
  ev.ts_ns = 123'456'789;
  ev.dur_ns = 42'000;
  ev.arg0_name = "index";
  ev.arg0 = 9;
  const std::string line = obs::event_to_json_line(ev, /*pid=*/2, /*tid=*/5);
  EXPECT_TRUE(obs::json_valid(line));

  const auto parsed = obs::parse_event_line(line);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->name, "job");
  EXPECT_EQ(parsed->ph, 'X');
  EXPECT_NEAR(parsed->ts_us, 123'456.789, 1e-6);
  EXPECT_NEAR(parsed->dur_us, 42.0, 1e-6);
  EXPECT_EQ(parsed->pid, 2);
  EXPECT_EQ(parsed->tid, 5);
}

TEST(Tracer, CorruptLinesParseToNothing) {
  EXPECT_FALSE(obs::parse_event_line("").has_value());
  EXPECT_FALSE(obs::parse_event_line("{\"name\":\"torn").has_value());
  EXPECT_FALSE(obs::parse_event_line("not json at all").has_value());
}

// --------------------------------------------------- traced executor runs --

/// Partial-overlap check: within one (pid, tid) track, any two complete
/// events must be disjoint or strictly nested — the invariant RAII spans
/// on one thread guarantee, and the one Perfetto needs to draw a stack.
bool spans_nest(std::vector<obs::ParsedEvent> spans) {
  std::sort(spans.begin(), spans.end(),
            [](const obs::ParsedEvent& a, const obs::ParsedEvent& b) {
              if (a.ts_us != b.ts_us) return a.ts_us < b.ts_us;
              return a.dur_us > b.dur_us;  // enclosing span first
            });
  for (std::size_t i = 0; i + 1 < spans.size(); ++i) {
    const double a_end = spans[i].ts_us + spans[i].dur_us;
    const auto& b = spans[i + 1];
    for (std::size_t j = i + 1; j < spans.size(); ++j) {
      const auto& s = spans[j];
      if (s.ts_us >= a_end) break;  // disjoint from a, and from a's tail
      if (s.ts_us + s.dur_us > a_end + 1e-3) return false;  // partial overlap
    }
    (void)b;
  }
  return true;
}

TEST(TracedExecutor, TraceIsValidJsonWithBalancedNesting) {
  const auto configs = tiny_sweep(4);
  const std::string trace = temp_path("exec.trace.json");

  {
    ScopedTracer tracer(0, "test_exec");
    exp::JobQueue queue(configs);
    exp::MemorySink sink;
    exp::ExecutorOptions opts;
    opts.workers = 2;
    exp::Executor executor(opts);
    const auto report = executor.run(queue, sink);
    ASSERT_TRUE(report.ok());
    ASSERT_EQ(report.executed, configs.size());
    ASSERT_EQ(obs::Tracer::write_json(trace), obs::Tracer::buffered());
  }

  const std::string doc = slurp(trace);
  std::string error;
  EXPECT_TRUE(obs::json_valid(doc, &error)) << error;

  // Re-read the document line-wise: one event object per line by
  // construction, so the line parser doubles as the event extractor.
  std::istringstream in(doc);
  std::string line;
  std::size_t job_spans = 0;
  std::map<std::pair<std::int64_t, std::int64_t>,
           std::vector<obs::ParsedEvent>>
      tracks;
  while (std::getline(in, line)) {
    if (!line.empty() && line.back() == ',') line.pop_back();  // array joins
    const auto ev = obs::parse_event_line(line);
    if (!ev) continue;  // the {"traceEvents":[ scaffolding
    if (ev->name == "job" && ev->ph == 'X') ++job_spans;
    if (ev->ph == 'X') tracks[{ev->pid, ev->tid}].push_back(*ev);
  }
  EXPECT_EQ(job_spans, configs.size());
  std::size_t commit_tracks = 0;
  for (auto& [track, spans] : tracks) {
    EXPECT_TRUE(spans_nest(spans))
        << "partial span overlap on pid " << track.first << " tid "
        << track.second;
    // Commits run on the one committer thread, never on a worker.
    const auto named = [&spans](const char* name) {
      return std::any_of(spans.begin(), spans.end(),
                         [name](const obs::ParsedEvent& e) {
                           return e.name == name;
                         });
    };
    if (named("commit")) {
      ++commit_tracks;
      EXPECT_FALSE(named("job")) << "commit span on a worker track";
    }
  }
  EXPECT_EQ(commit_tracks, 1u);
  std::remove(trace.c_str());
}

TEST(TracedExecutor, EngineCountersAreSampled) {
  ScopedTracer tracer(0, "test_counters");
  (void)core::run_experiment(tiny_sweep(1).front());
  const std::string path = temp_path("counters.trace");
  ASSERT_GT(obs::Tracer::write_event_lines(path, /*append=*/false), 0u);

  const std::string text = slurp(path);
  EXPECT_NE(text.find("engine.events"), std::string::npos);
  EXPECT_NE(text.find("engine.cancels"), std::string::npos);
  EXPECT_NE(text.find("engine.sched"), std::string::npos);
  EXPECT_NE(text.find("engine.msg_pool_reused"), std::string::npos);
  std::remove(path.c_str());
}

// ------------------------------------------------------------- trace merge --

TEST(TraceMerge, DeterministicAcrossRunsAndTolerantOfTornTails) {
  const std::string base = temp_path("merge.trace.json");
  const std::string parent = obs::parent_trace_path(base);
  const std::string w0 = obs::worker_trace_path(base, 0, 2);
  const std::string w1 = obs::worker_trace_path(base, 1, 2);

  auto line = [](const char* name, char ph, std::int64_t ts_ns,
                 std::uint32_t pid) {
    obs::TraceEvent ev;
    ev.name = name;
    ev.cat = "test";
    ev.ph = ph;
    ev.ts_ns = ts_ns;
    ev.dur_ns = ph == 'X' ? 500 : 0;
    return obs::event_to_json_line(ev, pid, 1);
  };

  {
    std::ofstream p(parent);
    p << line("steal", 'i', 5'000, 0) << "\n";
    p << line("spawn", 'i', 1'000, 0) << "\n";
  }
  {
    // Overlapping stolen range: both workers ran the same job index at
    // overlapping times on their own tracks — the merge must keep both.
    std::ofstream f(w0);
    f << line("job", 'X', 2'000, 1) << "\n";
    f << line("job", 'X', 6'000, 1) << "\n";
    f << "{\"name\":\"job\",\"cat\":\"test\",\"ph\":\"X\",\"ts\":9.0";  // torn
  }
  {
    std::ofstream f(w1);
    f << line("job", 'X', 6'200, 2) << "\n";
  }

  const auto discovered = obs::discover_trace_files(base);
  ASSERT_EQ(discovered.size(), 3u);
  EXPECT_EQ(discovered[0], parent);  // parent first, then slot order
  EXPECT_EQ(discovered[1], w0);
  EXPECT_EQ(discovered[2], w1);

  const std::string out_a = temp_path("merged_a.json");
  const std::string out_b = temp_path("merged_b.json");
  const auto report_a = obs::merge_trace_files(discovered, out_a);
  const auto report_b = obs::merge_trace_files(discovered, out_b);
  EXPECT_EQ(report_a.files_read, 3u);
  EXPECT_EQ(report_a.events, 5u);
  EXPECT_EQ(report_a.corrupt_lines, 1u);
  EXPECT_EQ(report_b.events, report_a.events);

  const std::string doc_a = slurp(out_a);
  EXPECT_EQ(doc_a, slurp(out_b));  // byte-deterministic merge
  std::string error;
  EXPECT_TRUE(obs::json_valid(doc_a, &error)) << error;

  // Events must come out sorted by timestamp: spawn < job < steal < ...
  EXPECT_LT(doc_a.find("spawn"), doc_a.find("steal"));

  for (const auto& f : {parent, w0, w1, out_a, out_b})
    std::remove(f.c_str());
}

TEST(TraceMerge, MissingInputsAreSkipped) {
  const std::string out = temp_path("merged_none.json");
  const auto report =
      obs::merge_trace_files({temp_path("nope.trace.json.parent")}, out);
  EXPECT_EQ(report.files_read, 0u);
  EXPECT_EQ(report.events, 0u);
  EXPECT_TRUE(obs::json_valid(slurp(out)));
  std::remove(out.c_str());
}

TEST(TraceMerge, WorkerAppendSurvivesRespawn) {
  // A respawned slot appends to the same file: both generations' events
  // must survive in one merged timeline.
  const std::string base = temp_path("respawn.trace.json");
  const std::string w0 = obs::worker_trace_path(base, 0, 1);
  {
    ScopedTracer tracer(1, "worker 0");
    obs::instant("test", "gen0");
    ASSERT_GT(obs::Tracer::write_event_lines(w0, /*append=*/true), 0u);
  }
  {
    ScopedTracer tracer(1, "worker 0");
    obs::instant("test", "gen1");
    ASSERT_GT(obs::Tracer::write_event_lines(w0, /*append=*/true), 0u);
  }
  const std::string out = temp_path("respawn_merged.json");
  (void)obs::merge_trace_files({w0}, out);
  const std::string doc = slurp(out);
  EXPECT_NE(doc.find("gen0"), std::string::npos);
  EXPECT_NE(doc.find("gen1"), std::string::npos);
  EXPECT_TRUE(obs::json_valid(doc));
  std::remove(w0.c_str());
  std::remove(out.c_str());
}

// ------------------------------------------------------------ status file --

TEST(StatusFile, SnapshotRoundTrips) {
  obs::StatusSnapshot st;
  st.phase = "running";
  st.jobs_total = 120;
  st.jobs_done = 37;
  st.elapsed_seconds = 2.96;  // 37 / 2.96 = 12.5 jobs/s, 83 / 12.5 = 6.64 s
  st.steals = 3;
  st.restarts = 1;
  st.requests = 9;
  st.cache_hits = 5;
  st.connections = 4;
  st.queue_depth = 2;
  st.in_flight = 1;
  st.evicted = 1;
  st.expiry_s = 4.5;
  st.workers.push_back({0, true, 0, 60, 37, 1, 0.25});
  st.workers.push_back({1, false, 60, 120, 120, 0, -1.0});

  const std::string json = st.to_json();
  EXPECT_TRUE(obs::json_valid(json));
  EXPECT_NE(json.find("\"jobs_per_s\":12.500,\"eta_s\":6.640,"),
            std::string::npos)
      << json;

  const auto parsed = obs::StatusSnapshot::parse(json);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->phase, "running");
  EXPECT_EQ(parsed->jobs_total, 120u);
  EXPECT_EQ(parsed->jobs_done, 37u);
  EXPECT_NEAR(parsed->elapsed_seconds, 2.96, 1e-3);
  EXPECT_NEAR(parsed->jobs_per_second(), 12.5, 1e-3);
  EXPECT_NEAR(parsed->eta_seconds(), 6.64, 1e-3);
  EXPECT_EQ(parsed->steals, 3u);
  EXPECT_EQ(parsed->restarts, 1u);
  EXPECT_EQ(parsed->requests, 9u);
  EXPECT_EQ(parsed->cache_hits, 5u);
  EXPECT_EQ(parsed->connections, 4u);
  EXPECT_EQ(parsed->queue_depth, 2u);
  EXPECT_EQ(parsed->in_flight, 1u);
  EXPECT_EQ(parsed->evicted, 1u);
  ASSERT_TRUE(parsed->expiry_s.has_value());
  EXPECT_NEAR(*parsed->expiry_s, 4.5, 1e-3);
  ASSERT_EQ(parsed->workers.size(), 2u);
  EXPECT_EQ(parsed->workers[0].slot, 0u);
  EXPECT_TRUE(parsed->workers[0].live);
  EXPECT_EQ(parsed->workers[0].frontier, 37u);
  EXPECT_NEAR(parsed->workers[0].heartbeat_age_s, 0.25, 1e-3);
  EXPECT_FALSE(parsed->workers[1].live);
  EXPECT_EQ(parsed->workers[1].lease_end, 120u);

  // A run that ended, done or failed, has no time left to wait for.
  st.phase = "failed";
  EXPECT_NEAR(st.jobs_per_second(), 12.5, 1e-3);
  EXPECT_EQ(st.eta_seconds(), 0.0);
  EXPECT_NE(st.to_json().find("\"jobs_per_s\":12.500,\"eta_s\":0.000,"),
            std::string::npos)
      << st.to_json();
  // No time and no commits yet: no rate, and the ETA is unknown.
  st.phase = "running";
  st.jobs_done = 0;
  st.elapsed_seconds = 0.0;
  EXPECT_EQ(st.jobs_per_second(), 0.0);
  EXPECT_EQ(st.eta_seconds(), -1.0);
}

TEST(StatusFile, WriteAndReadBack) {
  const std::string path = temp_path("status.json");
  obs::StatusSnapshot st;
  st.phase = "done";
  st.jobs_total = 4;
  st.jobs_done = 4;
  obs::write_status_file(path, st);
  const auto back = obs::read_status_file(path);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->phase, "done");
  EXPECT_EQ(back->jobs_done, 4u);
  EXPECT_FALSE(back->expiry_s.has_value()) << "no threshold reads \"none\"";
  EXPECT_NE(slurp(path).find("\"expiry_s\":\"none\""), std::string::npos);
  EXPECT_TRUE(obs::json_valid(slurp(path)));
  std::remove(path.c_str());
}

TEST(StatusFile, ConcurrentReadsNeverSeeATornFile) {
  // Every status producer rewrites its file through write_status_file;
  // readers (dashboards, the supervised fault tests) poll it meanwhile.
  // The first write lands before the reader starts, so the file always
  // exists: a read that fails to parse is a torn write.
  const std::string path = temp_path("hammer.status.json");
  constexpr std::size_t kWrites = 1'000;
  obs::StatusSnapshot st;
  st.jobs_total = kWrites;
  st.workers.push_back({0, true, 0, kWrites, 0, 0, 0.0});
  obs::write_status_file(path, st);

  std::atomic<bool> done{false};
  std::size_t reads = 0;
  std::size_t torn = 0;
  std::size_t backwards = 0;  // a read older than the one before it
  std::size_t last_done = 0;
  std::thread reader([&] {
    while (!done.load(std::memory_order_relaxed)) {
      const auto back = obs::read_status_file(path);
      ++reads;
      if (!back) {
        ++torn;
        continue;
      }
      if (back->jobs_done < last_done) ++backwards;
      last_done = back->jobs_done;
    }
  });
  for (std::size_t i = 1; i <= kWrites; ++i) {
    st.jobs_done = i;
    st.elapsed_seconds = 0.01 * static_cast<double>(i);
    st.workers[0].frontier = i;
    st.workers[0].heartbeat_age_s = 0.001 * static_cast<double>(i % 7);
    st.phase = i == kWrites ? "done" : "running";
    obs::write_status_file(path, st);
  }
  done.store(true, std::memory_order_relaxed);
  reader.join();

  EXPECT_GT(reads, 0u);
  EXPECT_EQ(torn, 0u) << "of " << reads << " reads";
  EXPECT_EQ(backwards, 0u);
  const auto final_status = obs::read_status_file(path);
  ASSERT_TRUE(final_status.has_value());
  EXPECT_EQ(final_status->phase, "done");
  EXPECT_EQ(final_status->jobs_done, kWrites);
  std::remove(path.c_str());
}

TEST(StatusFile, MalformedInputRejected) {
  EXPECT_FALSE(obs::StatusSnapshot::parse("").has_value());
  EXPECT_FALSE(obs::StatusSnapshot::parse("{\"v\":99}").has_value());
  EXPECT_FALSE(
      obs::StatusSnapshot::parse("{\"v\":1,\"phase\":\"x\"}").has_value());
}

// -------------------------------------------------------------- json lint --

TEST(JsonLint, AcceptsValidDocuments) {
  EXPECT_TRUE(obs::json_valid("{}"));
  EXPECT_TRUE(obs::json_valid("[1,2.5,-3e4,\"a\\n\\u00e9\",true,null]"));
  EXPECT_TRUE(obs::json_valid("{\"a\":{\"b\":[{}]}}"));
}

TEST(JsonLint, RejectsInvalidDocuments) {
  std::string error;
  EXPECT_FALSE(obs::json_valid("", &error));
  EXPECT_FALSE(obs::json_valid("{", &error));
  EXPECT_FALSE(obs::json_valid("{\"a\":1,}", &error));
  EXPECT_FALSE(obs::json_valid("[1] trailing", &error));
  EXPECT_FALSE(obs::json_valid("{\"a\":01}", &error));
  EXPECT_FALSE(obs::json_valid("\"unterminated", &error));
}

// ---------------------------------------------------------- DurationStats --

TEST(DurationStats, PercentilesOverKnownSamples) {
  std::vector<double> samples;
  for (int i = 1; i <= 100; ++i) samples.push_back(i / 1000.0);  // 1..100ms
  const auto d = exp::DurationStats::from_samples(samples);
  EXPECT_EQ(d.count, 100u);
  EXPECT_NEAR(d.min_s, 0.001, 1e-9);
  EXPECT_NEAR(d.max_s, 0.100, 1e-9);
  EXPECT_NEAR(d.mean_s, 0.0505, 1e-9);
  EXPECT_NEAR(d.p50_s, 0.051, 1e-6);
  EXPECT_NEAR(d.p95_s, 0.095, 1e-6);
  EXPECT_NEAR(d.p99_s, 0.099, 1e-6);
  EXPECT_NE(d.summary().find("n=100"), std::string::npos);
}

TEST(DurationStats, EmptyIsWellDefined) {
  const auto d = exp::DurationStats::from_samples({});
  EXPECT_EQ(d.count, 0u);
  EXPECT_EQ(d.summary(), "job wall: n/a");
}

TEST(DurationStats, ReportedByExecutor) {
  const auto configs = tiny_sweep(3);
  exp::JobQueue queue(configs);
  exp::MemorySink sink;
  exp::ExecutorOptions opts;
  opts.workers = 1;
  exp::Executor executor(opts);
  const auto report = executor.run(queue, sink);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report.job_wall.count, configs.size());
  EXPECT_GT(report.job_wall.max_s, 0.0);
  EXPECT_LE(report.job_wall.min_s, report.job_wall.p95_s);
  EXPECT_LE(report.job_wall.p95_s, report.job_wall.max_s);
}

// --------------------------------------------------------- progress ticker --

TEST(ProgressTicker, NonTtyEmitsPlainNewlineTerminatedLines) {
  const auto configs = tiny_sweep(3);
  exp::JobQueue queue(configs);
  exp::MemorySink sink;
  std::ostringstream out;
  exp::ExecutorOptions opts;
  opts.workers = 1;
  opts.progress = true;
  opts.progress_stream = &out;
  opts.progress_tty = 0;  // force CI mode
  exp::Executor executor(opts);
  ASSERT_TRUE(executor.run(queue, sink).ok());

  const std::string text = out.str();
  EXPECT_EQ(text.find('\r'), std::string::npos);
  ASSERT_FALSE(text.empty());
  EXPECT_EQ(text.back(), '\n');  // final summary line is newline-terminated
  EXPECT_NE(text.find("3/3 jobs"), std::string::npos);
}

TEST(ProgressTicker, TtyModeOverwritesInPlace) {
  const auto configs = tiny_sweep(3);
  exp::JobQueue queue(configs);
  exp::MemorySink sink;
  std::ostringstream out;
  exp::ExecutorOptions opts;
  opts.workers = 1;
  opts.progress = true;
  opts.progress_stream = &out;
  opts.progress_tty = 1;  // force interactive mode
  exp::Executor executor(opts);
  ASSERT_TRUE(executor.run(queue, sink).ok());

  const std::string text = out.str();
  EXPECT_NE(text.find('\r'), std::string::npos);  // carriage-return overwrite
  ASSERT_FALSE(text.empty());
  EXPECT_EQ(text.back(), '\n');  // still ends with one clean newline
}

TEST(ProgressTicker, StatusPathWrittenWithoutProgress) {
  const auto configs = tiny_sweep(2);
  const std::string path = temp_path("exec_status.json");
  exp::JobQueue queue(configs);
  exp::MemorySink sink;
  exp::ExecutorOptions opts;
  opts.workers = 1;
  opts.progress = false;
  opts.status_path = path;
  exp::Executor executor(opts);
  ASSERT_TRUE(executor.run(queue, sink).ok());

  const auto st = obs::read_status_file(path);
  ASSERT_TRUE(st.has_value());
  EXPECT_EQ(st->phase, "done");
  EXPECT_EQ(st->jobs_total, configs.size());
  EXPECT_EQ(st->jobs_done, configs.size());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace oracle
