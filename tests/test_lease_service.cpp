// Fault-injection tests for the cross-host lease service
// (exp::LeaseService + exp::LeaseClient + the lease-server flavour of the
// shard supervisor): protocol round-trips, fencing-epoch rejection,
// write-ahead journal replay with a torn tail, adaptive expiry +
// reassignment of a silent slot, the journal-less in-process service and
// its steal policy, and the deterministic kill matrix —
// worker SIGKILL, server SIGKILL (workers orphan, journal replay +
// --resume converges), and a 30% frame-drop network between client and
// server.
//
// Like test_shard_faults, the binary is its own fleet: a custom main()
// dispatches to a lease worker (argv[1] == "--lease-worker") or a lease
// server (argv[1] == "--lease-server-role"), so both the supervisor under
// test and the tests themselves can self-exec this executable.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <mutex>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/sweep.hpp"
#include "exp/exp.hpp"
#include "obs/status.hpp"
#include "util/error.hpp"
#include "util/file_util.hpp"
#include "util/net.hpp"
#include "util/posix_io.hpp"

#include <poll.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

namespace oracle {
namespace {

std::string g_self;  ///< argv[0], for worker/server self-exec

core::ExperimentConfig small_config() {
  core::ExperimentConfig cfg;
  cfg.topology = "grid:5x5";
  cfg.strategy = "cwn:radius=4,horizon=1";
  cfg.workload = "fib:9";
  cfg.machine.seed = 1;
  return cfg;
}

/// The fixed sweep shared by the tests, the self-exec'd workers, and the
/// self-exec'd server: 3 x 3 x 2 = 18 fast jobs.
std::vector<core::ExperimentConfig> fault_sweep() {
  return core::SweepBuilder(small_config())
      .topologies({"grid:5x5", "grid:6x6", "dlm:5:5x5"})
      .strategies({"cwn:radius=4,horizon=1", "gm:hwm=2,lwm=1", "random"})
      .seeds({1, 2})
      .build();
}

std::string temp_path(const std::string& name) {
  return testing::TempDir() + "oracle_lease_" + name;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

/// Serial golden store, produced once and shared by every test.
const std::string& serial_store() {
  static std::string path;
  static std::once_flag once;
  std::call_once(once, [] {
    // Pid-unique: ctest runs each TEST as its own process, concurrently —
    // a shared path would be remove()d and rewritten under a sibling
    // process mid-comparison.
    path = temp_path("serial_golden." + std::to_string(::getpid()) +
                     ".jsonl");
    std::remove(path.c_str());
    exp::BatchOptions opt;
    opt.jsonl_path = path;
    opt.collect = false;
    const auto outcome = exp::run_batch(fault_sweep(), opt);
    ORACLE_REQUIRE(outcome.report.ok(), "serial golden run failed");
  });
  return path;
}

void remove_run_files(const std::string& canonical, std::size_t slots) {
  std::remove(canonical.c_str());
  std::remove((canonical + ".marker").c_str());
  std::remove(exp::quarantine_path(canonical).c_str());
  for (std::size_t k = 0; k < slots; ++k) {
    const auto store = exp::worker_store_path(canonical, k, slots);
    std::remove(store.c_str());
  }
}

// --------------------------------------------------------------- helpers --

/// In-process lease server on an ephemeral port, running on its own
/// thread until stop().
struct ServerThread {
  explicit ServerThread(exp::LeaseServiceOptions opt) : svc(std::move(opt)) {
    svc.start();
    th = std::thread([this] { stats = svc.run(); });
  }
  ~ServerThread() { stop(); }
  void stop() {
    svc.stop();
    if (th.joinable()) th.join();
  }
  std::uint16_t port() const { return svc.port(); }

  exp::LeaseService svc;
  std::thread th;
  exp::LeaseServiceStats stats;
};

exp::LeaseServiceOptions service_options(const std::string& journal,
                                         std::size_t slots) {
  exp::LeaseServiceOptions opt;
  opt.jobs = fault_sweep().size();
  opt.slots = slots;
  opt.journal_path = journal;
  opt.linger_ms = 60'000;  // in-process tests stop() explicitly
  return opt;
}

exp::LeaseClientOptions client_options(std::uint16_t port, std::size_t slot,
                                       std::size_t slot_count) {
  exp::LeaseClientOptions copt;
  copt.server = util::HostPort{"127.0.0.1", port};
  copt.slot = slot;
  copt.slot_count = slot_count;
  copt.jobs = fault_sweep().size();
  copt.op_timeout_ms = 1'000;
  copt.retry_budget = 10;
  copt.backoff_base_ms = 5;
  copt.backoff_cap_ms = 50;
  return copt;
}

pid_t spawn_process(const std::vector<std::string>& args) {
  std::vector<char*> argv;
  argv.reserve(args.size() + 1);
  for (const auto& a : args) argv.push_back(const_cast<char*>(a.c_str()));
  argv.push_back(nullptr);
  const pid_t pid = ::fork();
  if (pid == 0) {
    ::execv(argv[0], argv.data());
    _exit(127);
  }
  return pid;
}

/// Spawn this binary as a lease server over fault_sweep(); returns its
/// pid. The child writes its bound port to `portfile` (atomically) and
/// its final stats to `statsfile` on exit.
pid_t spawn_server(const std::string& journal, const std::string& portfile,
                   const std::string& statsfile, std::size_t slots,
                   std::uint32_t linger_ms) {
  std::remove(portfile.c_str());
  return spawn_process({exp::self_exec_path(g_self), "--lease-server-role",
                        "--journal", journal, "--portfile", portfile,
                        "--statsfile", statsfile, "--slots",
                        std::to_string(slots), "--linger-ms",
                        std::to_string(linger_ms)});
}

std::optional<int> wait_for_port(const std::string& portfile,
                                 double timeout_s) {
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::milliseconds(static_cast<int>(timeout_s * 1000));
  while (std::chrono::steady_clock::now() < deadline) {
    const std::string text = read_file(portfile);
    if (!text.empty()) return std::stoi(text);
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return std::nullopt;
}

/// Key-value stats file written by the server role on exit.
std::map<std::string, long long> read_stats_file(const std::string& path) {
  std::map<std::string, long long> kv;
  std::ifstream in(path);
  std::string key;
  long long value = 0;
  while (in >> key >> value) kv[key] = value;
  return kv;
}

/// Launch a lease-server-mode supervised run over fault_sweep().
exp::SupervisorReport run_supervised(const std::string& canonical, int port,
                                   std::size_t workers, bool resume,
                                   const std::vector<std::string>& extra = {}) {
  exp::SupervisorOptions sopt;
  sopt.workers = workers;
  sopt.out = canonical;
  sopt.resume = resume;
  sopt.lease_server = "127.0.0.1:" + std::to_string(port);
  sopt.max_restarts = 2;
  sopt.exec_path = exp::self_exec_path(g_self);
  sopt.worker_args = {"--lease-worker", "--out", canonical};
  sopt.worker_args.insert(sopt.worker_args.end(), extra.begin(), extra.end());
  return exp::run_supervisor(fault_sweep(), sopt);
}

int wait_child(pid_t pid) {
  int status = 0;
  ::waitpid(pid, &status, 0);
  return status;
}

// ------------------------------------------------------- protocol tests --

TEST(LeaseProtocol, RequestRoundTrips) {
  exp::LeaseRequest req;
  req.seq = 42;
  req.op = exp::LeaseOp::kAcquire;
  req.slot = 3;
  req.slot_count = 8;
  req.jobs = 1234;
  auto back = exp::LeaseRequest::parse(req.encode());
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->seq, 42u);
  EXPECT_EQ(back->op, exp::LeaseOp::kAcquire);
  EXPECT_EQ(back->slot, 3u);
  EXPECT_EQ(back->slot_count, 8u);
  EXPECT_EQ(back->jobs, 1234u);

  exp::LeaseRequest commit;
  commit.seq = 7;
  commit.op = exp::LeaseOp::kCommit;
  commit.slot = 1;
  commit.epoch = 5;
  commit.frontier = 99;
  commit.wall_us = 123456;
  commit.retries = 17;
  back = exp::LeaseRequest::parse(commit.encode());
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->op, exp::LeaseOp::kCommit);
  EXPECT_EQ(back->epoch, 5u);
  EXPECT_EQ(back->frontier, 99u);
  EXPECT_EQ(back->wall_us, 123456u);
  EXPECT_EQ(back->retries, 17u);

  for (const auto op : {exp::LeaseOp::kSteal, exp::LeaseOp::kStatus}) {
    exp::LeaseRequest r;
    r.seq = 9;
    r.op = op;
    r.slot = 2;
    r.epoch = 4;
    const auto rb = exp::LeaseRequest::parse(r.encode());
    ASSERT_TRUE(rb.has_value());
    EXPECT_EQ(rb->op, op);
    EXPECT_EQ(rb->seq, 9u);
  }
}

TEST(LeaseProtocol, ResponseRoundTripsIncludingFreeText) {
  exp::LeaseResponse lease;
  lease.seq = 11;
  lease.kind = exp::LeaseResponseKind::kLease;
  lease.epoch = 6;
  lease.begin = 10;
  lease.end = 20;
  auto back = exp::LeaseResponse::parse(lease.encode());
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->seq, 11u);
  EXPECT_EQ(back->kind, exp::LeaseResponseKind::kLease);
  EXPECT_EQ(back->epoch, 6u);
  EXPECT_EQ(back->begin, 10u);
  EXPECT_EQ(back->end, 20u);

  exp::LeaseResponse status;
  status.seq = 12;
  status.kind = exp::LeaseResponseKind::kStatus;
  status.text = R"({"phase": "serving", "jobs_done": 3})";
  back = exp::LeaseResponse::parse(status.encode());
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->kind, exp::LeaseResponseKind::kStatus);
  EXPECT_EQ(back->text, status.text) << "status text with spaces must survive";

  exp::LeaseResponse err;
  err.seq = 13;
  err.kind = exp::LeaseResponseKind::kError;
  err.text = "sweep shape mismatch: expected 18 jobs";
  back = exp::LeaseResponse::parse(err.encode());
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->kind, exp::LeaseResponseKind::kError);
  EXPECT_EQ(back->text, err.text);

  // Free text is byte-exact, as in the service dialect: no trimming.
  err.text = " padded error ";
  back = exp::LeaseResponse::parse(err.encode());
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->text, err.text);

  for (const auto kind :
       {exp::LeaseResponseKind::kOk, exp::LeaseResponseKind::kFenced,
        exp::LeaseResponseKind::kEmpty, exp::LeaseResponseKind::kDone}) {
    exp::LeaseResponse r;
    r.seq = 14;
    r.kind = kind;
    r.begin = 1;
    r.end = 2;
    const auto rb = exp::LeaseResponse::parse(r.encode());
    ASSERT_TRUE(rb.has_value());
    EXPECT_EQ(rb->kind, kind);
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

TEST(LeaseProtocol, EncodesGoldenBytes) {
  // Round trips alone would pass a codec that changed the bytes on both
  // sides; these literals pin the wire format itself.
  exp::LeaseRequest req;
  req.seq = 42;
  req.op = exp::LeaseOp::kAcquire;
  req.slot = 3;
  req.slot_count = 8;
  req.jobs = 1234;
  expect_golden(req, "v1 42 acquire 3 8 1234");
  req.seq = 7;
  req.op = exp::LeaseOp::kCommit;
  req.slot = 1;
  req.epoch = 5;
  req.frontier = 99;
  req.wall_us = 123456;
  req.retries = 17;
  expect_golden(req, "v1 7 commit 1 5 99 123456 17");
  req.op = exp::LeaseOp::kSteal;
  expect_golden(req, "v1 7 steal 1 5");
  req.op = exp::LeaseOp::kStatus;
  expect_golden(req, "v1 7 status");

  exp::LeaseResponse rsp;
  rsp.seq = 11;
  rsp.kind = exp::LeaseResponseKind::kLease;
  rsp.epoch = 6;
  rsp.begin = 10;
  rsp.end = 20;
  expect_golden(rsp, "v1 11 lease 6 10 20");
  rsp.kind = exp::LeaseResponseKind::kOk;
  expect_golden(rsp, "v1 11 ok 10 20");
  rsp.kind = exp::LeaseResponseKind::kFenced;
  expect_golden(rsp, "v1 11 fenced");
  rsp.kind = exp::LeaseResponseKind::kEmpty;
  expect_golden(rsp, "v1 11 empty");
  rsp.kind = exp::LeaseResponseKind::kDone;
  expect_golden(rsp, "v1 11 done");
  rsp.kind = exp::LeaseResponseKind::kStatus;
  rsp.text = R"({"phase": "serving", "jobs_done": 3})";
  expect_golden(rsp, R"(v1 11 status {"phase": "serving", "jobs_done": 3})");
  rsp.kind = exp::LeaseResponseKind::kError;
  rsp.text = "sweep shape mismatch: expected 18 jobs";
  expect_golden(rsp, "v1 11 error sweep shape mismatch: expected 18 jobs");
}

TEST(LeaseProtocol, RejectsMalformedFrames) {
  for (const std::string bad :
       {"", "v2 1 acquire 0 2 18", "v1 notanum acquire 0 2 18",
        "v1 1 bogus-op 0", "v1 1 acquire 0", "v1", "acquire 0 2 18"}) {
    EXPECT_FALSE(exp::LeaseRequest::parse(bad).has_value())
        << "request should be rejected: " << bad;
  }
  for (const std::string bad :
       {"", "v2 1 lease 1 0 9", "v1 x lease 1 0 9", "v1 1 bogus-kind",
        "v1 1 lease 1"}) {
    EXPECT_FALSE(exp::LeaseResponse::parse(bad).has_value())
        << "response should be rejected: " << bad;
  }
}

TEST(LeaseProtocol, HostPortParses) {
  const auto hp = util::HostPort::parse("127.0.0.1:9090");
  ASSERT_TRUE(hp.has_value());
  EXPECT_EQ(hp->host, "127.0.0.1");
  EXPECT_EQ(hp->port, 9090);
  EXPECT_EQ(hp->str(), "127.0.0.1:9090");

  // A bare port or empty host defaults to loopback.
  const auto bare = util::HostPort::parse(":1234");
  ASSERT_TRUE(bare.has_value());
  EXPECT_EQ(bare->host, "127.0.0.1");
  EXPECT_EQ(bare->port, 1234);
  const auto port_only = util::HostPort::parse("8080");
  ASSERT_TRUE(port_only.has_value());
  EXPECT_EQ(port_only->host, "127.0.0.1");
  EXPECT_EQ(port_only->port, 8080);

  EXPECT_FALSE(util::HostPort::parse("nohost").has_value());
  EXPECT_FALSE(util::HostPort::parse("host:").has_value());
  EXPECT_FALSE(util::HostPort::parse("host:notaport").has_value());
  EXPECT_FALSE(util::HostPort::parse("host:70000").has_value());
  EXPECT_FALSE(util::HostPort::parse("host:0").has_value());
  EXPECT_TRUE(
      util::HostPort::parse("host:0", /*allow_port_zero=*/true).has_value());
}

// -------------------------------------------------- in-process service --

TEST(LeaseService, FencingRejectsStaleEpochsAndPreservesTheFrontier) {
  const auto journal = temp_path("fencing.journal");
  std::remove(journal.c_str());
  ServerThread srv(service_options(journal, 2));

  // A holds slot 0 under epoch e1 and commits a frontier.
  exp::LeaseClient a(client_options(srv.port(), 0, 2));
  const auto grant_a = a.acquire();
  ASSERT_TRUE(grant_a.has_value());
  EXPECT_EQ(grant_a->epoch, 1u);
  std::size_t end = 0;
  EXPECT_EQ(a.commit(grant_a->epoch, 3, 1000, &end),
            exp::LeaseClient::CommitResult::kOk);
  EXPECT_EQ(end, grant_a->end);

  // B re-acquires the same slot: a fresh epoch fences A.
  exp::LeaseClient b(client_options(srv.port(), 0, 2));
  const auto grant_b = b.acquire();
  ASSERT_TRUE(grant_b.has_value());
  EXPECT_GT(grant_b->epoch, grant_a->epoch);

  // A's writes are now rejected; B's are accepted; the frontier moves
  // only under the live epoch.
  EXPECT_EQ(a.commit(grant_a->epoch, 5, 1000, &end),
            exp::LeaseClient::CommitResult::kFenced);
  EXPECT_EQ(b.commit(grant_b->epoch, 4, 1000, &end),
            exp::LeaseClient::CommitResult::kOk);
  EXPECT_EQ(a.commit(grant_a->epoch, 6, 1000, &end),
            exp::LeaseClient::CommitResult::kFenced);
  EXPECT_EQ(a.fenced(), 2u);

  const auto status_json = b.status();
  ASSERT_TRUE(status_json.has_value());
  const auto snapshot = obs::StatusSnapshot::parse(*status_json);
  ASSERT_TRUE(snapshot.has_value()) << *status_json;
  ASSERT_EQ(snapshot->workers.size(), 2u);
  EXPECT_EQ(snapshot->workers[0].frontier, 4u)
      << "fenced commit of 5 must not have clobbered B's frontier";
  EXPECT_EQ(snapshot->fenced, 2u);

  srv.stop();
  EXPECT_EQ(srv.stats.grants, 2u);
  EXPECT_EQ(srv.stats.fenced, 2u);
  EXPECT_FALSE(srv.stats.completed);
  std::remove(journal.c_str());
}

TEST(LeaseService, JournalReplayRestoresStateToleratingATornTail) {
  const auto journal = temp_path("replay.journal");
  std::remove(journal.c_str());
  const auto base = service_options(journal, 2);

  // First server instance: grant two slots, advance one frontier.
  {
    ServerThread srv(base);
    exp::LeaseClient a(client_options(srv.port(), 0, 2));
    const auto grant = a.acquire();
    ASSERT_TRUE(grant.has_value());
    std::size_t end = 0;
    EXPECT_EQ(a.commit(grant->epoch, 5, 1000, &end),
              exp::LeaseClient::CommitResult::kOk);
    exp::LeaseClient b(client_options(srv.port(), 1, 2));
    ASSERT_TRUE(b.acquire().has_value());
    srv.stop();
    EXPECT_GE(srv.stats.journal_records, 3u);  // grant, frontier, grant
  }

  // Simulate a crash mid-append: one garbage line plus a torn final
  // record with no newline.
  {
    std::ofstream out(journal, std::ios::app | std::ios::binary);
    out << "J1 frontier 0 nonsense\n";
    out << "J1 gran";
  }

  // Second instance replays everything valid and skips the torn tail.
  {
    ServerThread srv(base);
    EXPECT_GE(srv.svc.stats().replayed_records, 3u);
    EXPECT_EQ(srv.svc.stats().torn_journal_records, 2u);

    exp::LeaseClient a(client_options(srv.port(), 0, 2));
    const auto grant = a.acquire();
    ASSERT_TRUE(grant.has_value());
    EXPECT_EQ(grant->epoch, 2u) << "replayed epoch 1 + re-acquire bump";
    EXPECT_EQ(grant->end, 9u);

    const auto status_json = a.status();
    ASSERT_TRUE(status_json.has_value());
    const auto snapshot = obs::StatusSnapshot::parse(*status_json);
    ASSERT_TRUE(snapshot.has_value());
    ASSERT_EQ(snapshot->workers.size(), 2u);
    EXPECT_EQ(snapshot->workers[0].frontier, 5u)
        << "the committed frontier must survive the crash";
    srv.stop();
  }

  // A journal from a different sweep shape is a hard error, not a silent
  // restart.
  {
    auto mismatched = base;
    mismatched.jobs = base.jobs - 1;
    exp::LeaseService svc(mismatched);
    EXPECT_THROW(svc.start(), SimulationError);
  }
  std::remove(journal.c_str());
}

/// The journal of ReplayReproducesLiveState's sweep: slot 0 commits its
/// whole lease and falls silent, slot 1 drains its own, slot 0 expires,
/// and slot 1's takeover of the fully committed lease ends the sweep.
constexpr const char* kTakeoverJournal =
    "J1 init 18 2 0\n"
    "J1 grant 0 1\n"
    "J1 frontier 0 9\n"
    "J1 grant 1 1\n"
    "J1 frontier 1 18\n"
    "J1 expire 0 2\n"
    "J1 drained 1\n"
    "J1 reassign 0 1 9 2\n"
    "J1 done\n";

obs::StatusSnapshot service_status(std::uint16_t port) {
  exp::LeaseClient client(client_options(port, 0, 2));
  const auto json = client.status();
  EXPECT_TRUE(json.has_value());
  auto snapshot = obs::StatusSnapshot::parse(json.value_or(""));
  EXPECT_TRUE(snapshot.has_value()) << json.value_or("");
  return snapshot.value_or(obs::StatusSnapshot{});
}

TEST(LeaseService, ReplayReproducesLiveState) {
  const auto journal = temp_path("takeover.journal");
  std::remove(journal.c_str());
  auto opt = service_options(journal, 2);
  opt.expiry_ms = 300;
  constexpr auto kOk = exp::LeaseClient::CommitResult::kOk;

  obs::StatusSnapshot live;
  {
    ServerThread srv(opt);
    exp::LeaseClient a(client_options(srv.port(), 0, 2));
    exp::LeaseClient b(client_options(srv.port(), 1, 2));
    const auto grant_a = a.acquire();
    ASSERT_TRUE(grant_a.has_value());
    std::size_t end = 0;
    ASSERT_EQ(a.commit(grant_a->epoch, grant_a->end, 1000, &end), kOk);

    // Slot 1 stays in contact past slot 0's expiry.
    const auto grant_b = b.acquire();
    ASSERT_TRUE(grant_b.has_value());
    const auto until =
        std::chrono::steady_clock::now() + std::chrono::milliseconds(500);
    while (std::chrono::steady_clock::now() < until) {
      ASSERT_EQ(b.commit(grant_b->epoch, grant_b->end, 1000, &end), kOk);
      std::this_thread::sleep_for(std::chrono::milliseconds(25));
    }
    ASSERT_TRUE(b.status().has_value());
    EXPECT_FALSE(b.next_lease(grant_b->epoch).has_value())
        << "taking over a fully committed lease ends the sweep";
    live = service_status(srv.port());
    srv.stop();
  }
  EXPECT_EQ(live.phase, "done");
  EXPECT_EQ(read_file(journal), kTakeoverJournal);

  ServerThread replayed(opt);
  EXPECT_EQ(replayed.svc.stats().torn_journal_records, 0u);
  const auto back = service_status(replayed.port());
  EXPECT_EQ(back.phase, live.phase);
  EXPECT_EQ(back.jobs_done, live.jobs_done);
  ASSERT_EQ(back.workers.size(), live.workers.size());
  for (std::size_t k = 0; k < live.workers.size(); ++k) {
    SCOPED_TRACE("slot " + std::to_string(k));
    EXPECT_EQ(back.workers[k].lease_begin, live.workers[k].lease_begin);
    EXPECT_EQ(back.workers[k].lease_end, live.workers[k].lease_end);
    EXPECT_EQ(back.workers[k].frontier, live.workers[k].frontier);
    EXPECT_EQ(back.workers[k].restarts, live.workers[k].restarts);
    EXPECT_EQ(back.workers[k].live, live.workers[k].live);
  }
  replayed.stop();
  std::remove(journal.c_str());
}

TEST(LeaseService, ReplaysAGoldenJournal) {
  // A journal written by an earlier build keeps replaying: the J1 bytes
  // are pinned here, and in ReplayReproducesLiveState on the write side.
  const auto journal = temp_path("golden.journal");
  {
    std::ofstream out(journal, std::ios::binary | std::ios::trunc);
    out << kTakeoverJournal;
  }
  ServerThread srv(service_options(journal, 2));
  EXPECT_EQ(srv.svc.stats().replayed_records, 8u);
  EXPECT_EQ(srv.svc.stats().torn_journal_records, 0u);
  const auto st = service_status(srv.port());
  EXPECT_EQ(st.phase, "done");
  EXPECT_EQ(st.jobs_done, 18u);
  ASSERT_EQ(st.workers.size(), 2u);
  EXPECT_EQ(st.workers[0].lease_begin, 9u);
  EXPECT_EQ(st.workers[0].lease_end, 9u);
  EXPECT_EQ(st.workers[0].frontier, 9u);
  EXPECT_EQ(st.workers[0].restarts, 0u);
  EXPECT_EQ(st.workers[1].lease_begin, 9u);
  EXPECT_EQ(st.workers[1].lease_end, 18u);
  EXPECT_EQ(st.workers[1].frontier, 18u);
  for (const auto& w : st.workers) EXPECT_FALSE(w.live);
  srv.stop();
  std::remove(journal.c_str());
}

TEST(LeaseService, SilentSlotExpiresAdaptivelyAndIsReassigned) {
  const auto journal = temp_path("expiry.journal");
  std::remove(journal.c_str());
  auto opt = service_options(journal, 2);
  opt.timeout.floor_s = 0.3;  // fast expiry for the test
  opt.timeout.multiplier = 2.0;
  // Disable live-tail stealing so the only way B can get A's work is the
  // expiry + reassignment path under test.
  opt.min_steal_jobs = 100;
  ServerThread srv(opt);

  // A seeds the adaptive timeout with fast job walls, then goes silent.
  exp::LeaseClient a(client_options(srv.port(), 0, 2));
  const auto grant_a = a.acquire();
  ASSERT_TRUE(grant_a.has_value());
  std::size_t end = 0;
  for (std::size_t f = 1; f <= 3; ++f)
    ASSERT_EQ(a.commit(grant_a->epoch, f, 60'000, &end),
              exp::LeaseClient::CommitResult::kOk);

  // B drains its own lease, then polls for more work; the only work left
  // is A's — which the adaptive timeout must expire and reassign.
  auto copt_b = client_options(srv.port(), 1, 2);
  copt_b.backoff_base_ms = 20;
  copt_b.backoff_cap_ms = 100;
  exp::LeaseClient b(copt_b);
  const auto grant_b = b.acquire();
  ASSERT_TRUE(grant_b.has_value());
  ASSERT_EQ(b.commit(grant_b->epoch, grant_b->end, 60'000, &end),
            exp::LeaseClient::CommitResult::kOk);

  const auto reassigned = b.next_lease(grant_b->epoch);
  ASSERT_TRUE(reassigned.has_value())
      << "B should eventually take over A's expired lease";
  EXPECT_EQ(reassigned->begin, 3u) << "takeover starts at A's frontier";
  EXPECT_EQ(reassigned->end, grant_a->end);
  EXPECT_GT(reassigned->epoch, grant_a->epoch);

  // The expired holder is fenced on its next write.
  EXPECT_EQ(a.commit(grant_a->epoch, 5, 1000, &end),
            exp::LeaseClient::CommitResult::kFenced);

  srv.stop();
  EXPECT_GE(srv.stats.expirations, 1u);
  EXPECT_GE(srv.stats.reassigns, 1u);
  std::remove(journal.c_str());
}

/// One raw steal request and its verdict. LeaseClient::next_lease polls
/// through `empty` (nothing to hand out yet); these tests want to see it.
exp::LeaseResponseKind steal_once(std::uint16_t port, std::size_t slot,
                                  std::uint64_t epoch) {
  const auto deadline = util::NetClock::now() + std::chrono::seconds(1);
  util::Socket conn =
      util::connect_tcp(util::HostPort{"127.0.0.1", port}, deadline);
  exp::LeaseRequest req;
  req.seq = 1;
  req.op = exp::LeaseOp::kSteal;
  req.slot = slot;
  req.epoch = epoch;
  if (!conn.valid() || !util::send_frame(conn.fd(), req.encode(), deadline))
    return exp::LeaseResponseKind::kError;
  const auto frame = util::recv_frame(conn.fd(), deadline);
  const auto rsp = frame ? exp::LeaseResponse::parse(*frame) : std::nullopt;
  return rsp ? rsp->kind : exp::LeaseResponseKind::kError;
}

constexpr auto kEmpty = exp::LeaseResponseKind::kEmpty;

constexpr auto kOk = exp::LeaseClient::CommitResult::kOk;

TEST(LeaseService, StatusCarriesTheExpiryAndEverySlotsContactAge) {
  auto status = [](exp::LeaseClient& client) {
    const auto json = client.status();
    EXPECT_TRUE(json.has_value());
    auto snapshot = obs::StatusSnapshot::parse(json.value_or(""));
    EXPECT_TRUE(snapshot.has_value()) << json.value_or("");
    return snapshot.value_or(obs::StatusSnapshot{});
  };

  // Adaptive: no threshold before the first job-wall sample ("none"),
  // then the timeout's floor for fast jobs.
  ServerThread adaptive(service_options("", 2));
  exp::LeaseClient a(client_options(adaptive.port(), 0, 2));
  auto st = status(a);
  EXPECT_FALSE(st.expiry_s.has_value());
  EXPECT_NE(a.status().value_or("").find("\"expiry_s\":\"none\""),
            std::string::npos);
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  const auto grant = a.acquire();
  ASSERT_TRUE(grant.has_value());
  std::size_t end = 0;
  ASSERT_EQ(a.commit(grant->epoch, 1, 60'000, &end), kOk);
  st = status(a);
  ASSERT_TRUE(st.expiry_s.has_value());
  EXPECT_DOUBLE_EQ(*st.expiry_s, 3.0);
  ASSERT_EQ(st.workers.size(), 2u);
  // Slot 1 was never granted: its age counts from the service's start,
  // at least 50ms before slot 0's commit.
  EXPECT_GE(st.workers[1].heartbeat_age_s, 0.05);
  EXPECT_LT(st.workers[0].heartbeat_age_s, st.workers[1].heartbeat_age_s);

  // Fixed (a local run's --heartbeat-ms): reported from the start.
  auto opt = service_options("", 2);
  opt.expiry_ms = 250;
  ServerThread fixed(opt);
  exp::LeaseClient b(client_options(fixed.port(), 0, 2));
  st = status(b);
  ASSERT_TRUE(st.expiry_s.has_value());
  EXPECT_DOUBLE_EQ(*st.expiry_s, 0.25);
  ASSERT_EQ(st.workers.size(), 2u);
  EXPECT_GE(st.workers[1].heartbeat_age_s, 0.0);
}

TEST(LeaseService, RunsWithoutAJournalUntilEveryLeaseDrains) {
  // The in-process service of a local `run --workers N` keeps no journal:
  // the slot stores are the durable record.
  ServerThread srv(service_options("", 2));
  exp::LeaseClient a(client_options(srv.port(), 0, 2));
  exp::LeaseClient b(client_options(srv.port(), 1, 2));
  const auto grant_a = a.acquire();
  const auto grant_b = b.acquire();
  ASSERT_TRUE(grant_a.has_value());
  ASSERT_TRUE(grant_b.has_value());
  EXPECT_EQ(grant_a->begin, 0u);
  EXPECT_EQ(grant_a->end, 9u);
  EXPECT_EQ(grant_b->begin, 9u);
  EXPECT_EQ(grant_b->end, 18u);

  std::size_t end = 0;
  ASSERT_EQ(a.commit(grant_a->epoch, grant_a->end, 1000, &end), kOk);
  ASSERT_EQ(b.commit(grant_b->epoch, grant_b->end, 1000, &end), kOk);
  // A drained first; B has not said so yet, so A hears `empty`, not done.
  EXPECT_EQ(steal_once(srv.port(), 0, grant_a->epoch), kEmpty);
  EXPECT_FALSE(b.next_lease(grant_b->epoch).has_value()) << "sweep is done";
  EXPECT_FALSE(a.acquire().has_value()) << "late acquires hear done too";

  srv.stop();
  EXPECT_TRUE(srv.stats.completed);
  EXPECT_EQ(srv.stats.grants, 2u);
  EXPECT_EQ(srv.stats.steals, 0u);
  EXPECT_EQ(srv.stats.journal_records, 0u);
  EXPECT_EQ(srv.stats.replayed_records, 0u);
}

TEST(LeaseService, NeverSplitsTheLeaseOfASlotThatWasNeverAcquired) {
  ServerThread srv(service_options("", 2));
  exp::LeaseClient a(client_options(srv.port(), 0, 2));
  const auto grant_a = a.acquire();
  ASSERT_TRUE(grant_a.has_value());
  std::size_t end = 0;
  ASSERT_EQ(a.commit(grant_a->epoch, grant_a->end, 1000, &end), kOk);

  // Slot 1's worker has not started: stealing from it would only race its
  // start-up, so the idle thief waits instead.
  EXPECT_EQ(steal_once(srv.port(), 0, grant_a->epoch), kEmpty);
  exp::LeaseClient b(client_options(srv.port(), 1, 2));
  const auto grant_b = b.acquire();
  ASSERT_TRUE(grant_b.has_value());
  EXPECT_EQ(grant_b->epoch, 1u);
  EXPECT_EQ(grant_b->begin, 9u) << "the late worker gets its whole lease";
  EXPECT_EQ(grant_b->end, 18u);

  // Once granted, the unclaimed half of its lease is fair game.
  const auto stolen = a.next_lease(grant_a->epoch);
  ASSERT_TRUE(stolen.has_value());
  EXPECT_EQ(stolen->begin, 14u);
  EXPECT_EQ(stolen->end, 18u);
  ASSERT_EQ(b.commit(grant_b->epoch, 10, 1000, &end), kOk);
  EXPECT_EQ(end, 14u) << "the victim learns its shrunk end on commit";

  srv.stop();
  EXPECT_EQ(srv.stats.steals, 1u);
}

TEST(LeaseService, StealLeavesTheVictimItsInFlightJobAndOneMore) {
  ServerThread srv(service_options("", 2));
  exp::LeaseClient a(client_options(srv.port(), 0, 2));
  exp::LeaseClient b(client_options(srv.port(), 1, 2));
  const auto grant_a = a.acquire();
  const auto grant_b = b.acquire();
  ASSERT_TRUE(grant_a.has_value());
  ASSERT_TRUE(grant_b.has_value());

  // A has jobs 6, 7 and 8 left (6 is in flight); B drains and steals.
  std::size_t end = 0;
  ASSERT_EQ(a.commit(grant_a->epoch, 6, 1000, &end), kOk);
  ASSERT_EQ(b.commit(grant_b->epoch, grant_b->end, 1000, &end), kOk);
  const auto stolen = b.next_lease(grant_b->epoch);
  ASSERT_TRUE(stolen.has_value());
  EXPECT_EQ(stolen->begin, 8u) << "A keeps job 6 (in flight) and job 7";
  EXPECT_EQ(stolen->end, 9u);
  ASSERT_EQ(a.commit(grant_a->epoch, 6, 1000, &end), kOk);
  EXPECT_EQ(end, 8u);

  // Two jobs left is the in-flight one plus one more: nothing to split.
  ASSERT_EQ(b.commit(stolen->epoch, stolen->end, 1000, &end), kOk);
  EXPECT_EQ(steal_once(srv.port(), 1, stolen->epoch), kEmpty);

  srv.stop();
  EXPECT_EQ(srv.stats.steals, 1u);
}

TEST(LeaseService, LostFinalCommitIsRegrantedUnderTheSameEpoch) {
  // A worker that believes it drained while the server still sees a tail
  // (its last commit was lost) gets the tail back, not someone else's.
  ServerThread srv(service_options("", 2));
  exp::LeaseClient a(client_options(srv.port(), 0, 2));
  const auto grant_a = a.acquire();
  ASSERT_TRUE(grant_a.has_value());
  std::size_t end = 0;
  ASSERT_EQ(a.commit(grant_a->epoch, 5, 1000, &end), kOk);

  const auto again = a.next_lease(grant_a->epoch);
  ASSERT_TRUE(again.has_value());
  EXPECT_EQ(again->epoch, grant_a->epoch);
  EXPECT_EQ(again->begin, 5u);
  EXPECT_EQ(again->end, grant_a->end);

  srv.stop();
  EXPECT_EQ(srv.stats.steals, 0u);
  EXPECT_EQ(srv.stats.fenced, 0u);
  EXPECT_EQ(srv.stats.grants, 1u);
}

TEST(LeaseService, RejectsAcquiresForADifferentSweepShapeOrSlot) {
  ServerThread srv(service_options("", 2));
  auto wrong_jobs = client_options(srv.port(), 0, 2);
  wrong_jobs.jobs = fault_sweep().size() - 1;
  exp::LeaseClient c1(wrong_jobs);
  EXPECT_THROW(c1.acquire(), SimulationError);
  exp::LeaseClient c2(client_options(srv.port(), 0, 3));
  EXPECT_THROW(c2.acquire(), SimulationError);
  exp::LeaseClient c3(client_options(srv.port(), 2, 2));
  EXPECT_THROW(c3.acquire(), SimulationError);

  srv.stop();
  EXPECT_EQ(srv.stats.bad_requests, 3u);
  EXPECT_EQ(srv.stats.grants, 0u);
}

TEST(LeaseService, StatusReportsEachSlotsLeaseAndFrontier) {
  // The supervisor's quarantine suspect and the per-slot fields of its
  // status file both come from this snapshot.
  ServerThread srv(service_options("", 2));
  exp::LeaseClient a(client_options(srv.port(), 0, 2));
  const auto grant_a = a.acquire();
  ASSERT_TRUE(grant_a.has_value());
  std::size_t end = 0;
  ASSERT_EQ(a.commit(grant_a->epoch, 4, 1000, &end), kOk);

  auto status_json = a.status();
  ASSERT_TRUE(status_json.has_value());
  auto snapshot = obs::StatusSnapshot::parse(*status_json);
  ASSERT_TRUE(snapshot.has_value()) << *status_json;
  EXPECT_EQ(snapshot->phase, "serving");
  EXPECT_EQ(snapshot->jobs_total, 18u);
  EXPECT_EQ(snapshot->jobs_done, 4u);
  ASSERT_EQ(snapshot->workers.size(), 2u);
  EXPECT_TRUE(snapshot->workers[0].live);
  EXPECT_EQ(snapshot->workers[0].lease_begin, 0u);
  EXPECT_EQ(snapshot->workers[0].lease_end, 9u);
  EXPECT_EQ(snapshot->workers[0].frontier, 4u);
  EXPECT_FALSE(snapshot->workers[1].live) << "slot 1 was never granted";
  EXPECT_EQ(snapshot->workers[1].lease_begin, 9u);
  EXPECT_EQ(snapshot->workers[1].frontier, 9u);
  EXPECT_GE(snapshot->workers[1].heartbeat_age_s, 0.0)
      << "a never-granted slot reports its contact age too";

  // A steal moves both slots' bounds.
  exp::LeaseClient b(client_options(srv.port(), 1, 2));
  const auto grant_b = b.acquire();
  ASSERT_TRUE(grant_b.has_value());
  ASSERT_EQ(b.commit(grant_b->epoch, grant_b->end, 1000, &end), kOk);
  const auto stolen = b.next_lease(grant_b->epoch);
  ASSERT_TRUE(stolen.has_value());
  EXPECT_EQ(stolen->begin, 7u);

  status_json = a.status();
  ASSERT_TRUE(status_json.has_value());
  snapshot = obs::StatusSnapshot::parse(*status_json);
  ASSERT_TRUE(snapshot.has_value()) << *status_json;
  ASSERT_EQ(snapshot->workers.size(), 2u);
  EXPECT_EQ(snapshot->workers[0].lease_end, 7u);
  EXPECT_EQ(snapshot->workers[0].frontier, 4u);
  EXPECT_EQ(snapshot->workers[1].lease_begin, 7u);
  EXPECT_EQ(snapshot->workers[1].lease_end, 9u);
  EXPECT_EQ(snapshot->workers[1].frontier, 7u);
  EXPECT_EQ(snapshot->steals, 1u);
  srv.stop();
}

TEST(LeaseService, PartialFramePeersDoNotDelayOtherClients) {
  // Eight peers each park one byte of a length prefix before a client
  // asks for status. The service answers every request inline on one
  // poll loop, so a blocking per-peer frame read would answer only after
  // each stalled peer's deadline; the status must come back at once and
  // every stalled peer must be evicted.
  ServerThread srv(service_options("", 2));
  const util::HostPort at{"127.0.0.1", srv.port()};
  const auto deadline = util::NetClock::now() + std::chrono::seconds(5);
  std::vector<util::Socket> peers;
  for (int i = 0; i < 8; ++i) {
    peers.push_back(util::connect_tcp(at, deadline));
    ASSERT_TRUE(peers.back().valid());
    const char byte = 0x10;
    ASSERT_EQ(::send(peers.back().fd(), &byte, 1, MSG_NOSIGNAL), 1);
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(20));

  exp::LeaseRequest req;
  req.seq = 1;
  req.op = exp::LeaseOp::kStatus;
  const auto t0 = std::chrono::steady_clock::now();
  util::Socket client = util::connect_tcp(at, deadline);
  ASSERT_TRUE(client.valid());
  ASSERT_TRUE(util::send_frame(client.fd(), req.encode(), deadline));
  const auto frame = util::recv_frame(client.fd(), deadline);
  const auto elapsed = std::chrono::steady_clock::now() - t0;
  ASSERT_TRUE(frame.has_value());
  const auto rsp = exp::LeaseResponse::parse(*frame);
  ASSERT_TRUE(rsp.has_value());
  EXPECT_EQ(rsp->kind, exp::LeaseResponseKind::kStatus);
  EXPECT_LT(elapsed, std::chrono::milliseconds(100))
      << "status took "
      << std::chrono::duration_cast<std::chrono::milliseconds>(elapsed)
             .count()
      << " ms behind 8 half-sent frames";

  for (auto& peer : peers) {
    pollfd p{peer.fd(), POLLIN, 0};
    ASSERT_EQ(util::poll_retry(&p, 1, 5'000), 1) << "peer was not evicted";
    char b = 0;
    EXPECT_EQ(::recv(peer.fd(), &b, 1, 0), 0) << "expected EOF";
  }
  // The evictions show in the status reply as well as the final stats.
  req.seq = 2;
  ASSERT_TRUE(util::send_frame(client.fd(), req.encode(), deadline));
  const auto later = util::recv_frame(client.fd(), deadline);
  ASSERT_TRUE(later.has_value());
  const auto later_rsp = exp::LeaseResponse::parse(*later);
  ASSERT_TRUE(later_rsp.has_value());
  const auto snapshot = obs::StatusSnapshot::parse(later_rsp->text);
  ASSERT_TRUE(snapshot.has_value()) << later_rsp->text;
  EXPECT_EQ(snapshot->evicted, 8u);

  srv.stop();
  EXPECT_EQ(srv.stats.evicted, 8u);
}

// ---------------------------------------------------- distributed runs --

TEST(DistributedLease, CleanSweepConvergesToSerialBytes) {
  const auto canonical = temp_path("clean.jsonl");
  const auto journal = temp_path("clean.journal");
  const auto portfile = temp_path("clean.port");
  const auto statsfile = temp_path("clean.stats");
  remove_run_files(canonical, 3);
  std::remove(journal.c_str());
  std::remove(statsfile.c_str());

  const pid_t server = spawn_server(journal, portfile, statsfile, 3,
                                    /*linger_ms=*/300);
  const auto port = wait_for_port(portfile, 10.0);
  ASSERT_TRUE(port.has_value()) << "server never published its port";

  const auto report = run_supervised(canonical, *port, 3, /*resume=*/false);
  EXPECT_TRUE(report.ok()) << report.summary();
  EXPECT_EQ(report.planned_jobs, 18u);
  EXPECT_EQ(report.merge.records, 18u);
  EXPECT_EQ(report.orphaned, 0u);
  EXPECT_EQ(report.restarts, 0u);
  EXPECT_EQ(read_file(serial_store()), read_file(canonical));
  EXPECT_FALSE(util::file_exists(canonical + ".ckpt"));

  const int status = wait_child(server);
  EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0)
      << "server should exit 0 after completing + lingering";
  const auto stats = read_stats_file(statsfile);
  EXPECT_EQ(stats.at("completed"), 1);
  EXPECT_EQ(stats.at("fenced"), 0);
  EXPECT_EQ(stats.at("torn_journal_records"), 0);
  EXPECT_GE(stats.at("grants"), 3);

  remove_run_files(canonical, 3);
  std::remove(journal.c_str());
  std::remove(portfile.c_str());
  std::remove(statsfile.c_str());
}

TEST(DistributedLease, JobsCommittedOnAnotherHostKeepTheRunUnmerged) {
  // Another host has run slot 1 of a shared lease server: it committed its
  // whole lease and drained it, but its records are on its own disks. The
  // server then says `done` to this host's workers once slot 0 drains, yet
  // this host's stores miss slot 1's jobs: the completeness gate must
  // skip the merge, keep every slot store and say why.
  const auto canonical = temp_path("gate.jsonl");
  remove_run_files(canonical, 2);
  ServerThread srv(service_options("", 2));
  {
    exp::LeaseClient other(client_options(srv.port(), 1, 2));
    const auto grant = other.acquire();
    ASSERT_TRUE(grant.has_value());
    std::size_t end = 0;
    ASSERT_EQ(other.commit(grant->epoch, grant->end, 1000, &end), kOk);
    ASSERT_EQ(steal_once(srv.port(), 1, grant->epoch), kEmpty)
        << "slot 0 has no worker yet, so slot 1 drains without stealing";
  }

  testing::internal::CaptureStderr();
  const auto report = run_supervised(canonical, srv.port(), 2,
                                     /*resume=*/false);
  const std::string log = testing::internal::GetCapturedStderr();
  EXPECT_FALSE(report.merged) << report.summary();
  EXPECT_FALSE(report.ok());
  EXPECT_NE(log.find("run incomplete: 9 job(s) missing"), std::string::npos)
      << log;
  EXPECT_FALSE(util::file_exists(canonical));

  // Slot 0's lease (jobs 0-8) is all this host ran, and every record it
  // wrote is still in the slot stores for a later --resume.
  std::size_t kept = 0;
  for (std::size_t k = 0; k < 2; ++k) {
    std::ifstream in(exp::worker_store_path(canonical, k, 2));
    std::string line;
    while (std::getline(in, line)) {
      const auto rec = exp::parse_jsonl_record(line);
      ASSERT_TRUE(rec.has_value()) << line;
      EXPECT_LT(rec->job_index, 9u);
      ++kept;
    }
  }
  EXPECT_EQ(kept, 9u);

  srv.stop();
  remove_run_files(canonical, 2);
}

TEST(DistributedLease, SigkilledWorkerIsRespawnedUnderAFreshEpoch) {
  const auto canonical = temp_path("wkill.jsonl");
  const auto journal = temp_path("wkill.journal");
  const auto portfile = temp_path("wkill.port");
  const auto statsfile = temp_path("wkill.stats");
  remove_run_files(canonical, 2);
  std::remove(journal.c_str());
  std::remove(statsfile.c_str());

  const pid_t server = spawn_server(journal, portfile, statsfile, 2,
                                    /*linger_ms=*/300);
  const auto port = wait_for_port(portfile, 10.0);
  ASSERT_TRUE(port.has_value());

  const auto report = run_supervised(
      canonical, *port, 2, /*resume=*/false,
      {"--fault-slot", "1", "--die-after", "2", "--kill", "--marker",
       canonical + ".marker"});
  EXPECT_TRUE(report.ok()) << report.summary();
  EXPECT_EQ(report.restarts, 1u);
  EXPECT_EQ(report.orphaned, 0u);
  bool saw_sigkill = false;
  for (const auto& w : report.workers)
    if (w.slot == 1 && w.term_signal == SIGKILL) saw_sigkill = true;
  EXPECT_TRUE(saw_sigkill);
  EXPECT_EQ(read_file(serial_store()), read_file(canonical));

  const int status = wait_child(server);
  EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0);
  const auto stats = read_stats_file(statsfile);
  EXPECT_EQ(stats.at("completed"), 1);
  EXPECT_GE(stats.at("grants"), 3) << "initial 2 grants + respawn re-acquire";

  remove_run_files(canonical, 2);
  std::remove(journal.c_str());
  std::remove(portfile.c_str());
  std::remove(statsfile.c_str());
}

TEST(DistributedLease, ServerSigkillOrphansWorkersThenReplayResumeConverges) {
  const auto canonical = temp_path("skill.jsonl");
  const auto journal = temp_path("skill.journal");
  const auto marker = canonical + ".marker";
  remove_run_files(canonical, 3);
  std::remove(journal.c_str());

  const pid_t server1 = spawn_server(journal, temp_path("skill1.port"),
                                     temp_path("skill1.stats"), 3,
                                     /*linger_ms=*/300);
  const auto port1 = wait_for_port(temp_path("skill1.port"), 10.0);
  ASSERT_TRUE(port1.has_value());

  // Deterministic kill sequence: slot 0's worker dies (SIGKILL fault)
  // after 2 jobs and touches the marker first; the killer thread then
  // SIGKILLs the server — worker death and server death in order. Slot 1
  // stalls past the server's death so the sweep cannot finish; every
  // surviving worker must orphan (exit 3) instead of spinning forever.
  std::thread killer([&] {
    while (!util::file_exists(marker))
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    ::kill(server1, SIGKILL);
  });
  const auto failed = run_supervised(
      canonical, *port1, 3, /*resume=*/false,
      {"--fault-slot", "0", "--die-after", "2", "--kill", "--marker", marker,
       "--stall-slot", "1", "--stall-after", "0", "--stall-ms", "2500",
       "--retry-budget", "3", "--op-timeout-ms", "300", "--backoff-base-ms",
       "20", "--backoff-cap-ms", "100"});
  killer.join();
  const int status1 = wait_child(server1);
  EXPECT_TRUE(WIFSIGNALED(status1) && WTERMSIG(status1) == SIGKILL);

  EXPECT_FALSE(failed.ok());
  EXPECT_FALSE(failed.merged) << "completeness gate must skip the merge";
  EXPECT_GE(failed.orphaned, 1u)
      << "workers must degrade to the orphaned status, not crash codes";
  EXPECT_GE(failed.restarts, 1u) << "the SIGKILLed worker was respawned";
  EXPECT_FALSE(util::file_exists(canonical));

  // Restart the server on the same journal: replay restores leases,
  // frontiers, and epochs; a fault-free --resume run converges.
  const auto statsfile2 = temp_path("skill2.stats");
  std::remove(statsfile2.c_str());
  const pid_t server2 = spawn_server(journal, temp_path("skill2.port"),
                                     statsfile2, 3, /*linger_ms=*/300);
  const auto port2 = wait_for_port(temp_path("skill2.port"), 10.0);
  ASSERT_TRUE(port2.has_value());

  const auto resumed = run_supervised(canonical, *port2, 3, /*resume=*/true);
  EXPECT_TRUE(resumed.ok()) << resumed.summary();
  EXPECT_EQ(resumed.orphaned, 0u);
  EXPECT_EQ(read_file(serial_store()), read_file(canonical));
  EXPECT_FALSE(util::file_exists(canonical + ".ckpt"));

  const int status2 = wait_child(server2);
  EXPECT_TRUE(WIFEXITED(status2) && WEXITSTATUS(status2) == 0);
  const auto stats2 = read_stats_file(statsfile2);
  EXPECT_EQ(stats2.at("completed"), 1);
  EXPECT_GT(stats2.at("replayed_records"), 0)
      << "the second server must have replayed the journal";

  remove_run_files(canonical, 3);
  std::remove(journal.c_str());
  for (const auto& f : {temp_path("skill1.port"), temp_path("skill1.stats"),
                        temp_path("skill2.port"), statsfile2})
    std::remove(f.c_str());
}

// ------------------------------------------------- network fault proxy --

/// A deterministic chaos TCP proxy between a lease client and the
/// server: per-frame it drops, duplicates, delays, or truncates based on
/// a seeded xorshift schedule. Connections are handled one at a time —
/// the lease client holds exactly one connection and reconnects after
/// every failed call, which maps 1:1 onto this accept loop.
class FaultProxy {
 public:
  FaultProxy(std::uint16_t upstream_port, std::uint64_t seed)
      : upstream_{"127.0.0.1", upstream_port}, rng_(seed | 1) {}

  void start() {
    listener_ = util::listen_tcp(util::HostPort{"127.0.0.1", 0});
    port_ = util::local_port(listener_.fd());
    th_ = std::thread([this] { accept_loop(); });
  }

  void stop() {
    stop_.store(true, std::memory_order_relaxed);
    if (th_.joinable()) th_.join();
    listener_.close();
  }

  std::uint16_t port() const { return port_; }
  std::size_t dropped() const { return dropped_.load(); }
  std::size_t duplicated() const { return duplicated_.load(); }
  std::size_t truncated() const { return truncated_.load(); }
  std::size_t forwarded() const { return forwarded_.load(); }

 private:
  void accept_loop() {
    while (!stop_.load(std::memory_order_relaxed)) {
      struct pollfd p{};
      p.fd = listener_.fd();
      p.events = POLLIN;
      if (util::poll_retry(&p, 1, 50) <= 0) continue;
      util::Socket client = util::accept_tcp(listener_.fd());
      if (client.valid()) pump(client);
    }
  }

  std::uint64_t roll() {
    rng_ ^= rng_ << 13;
    rng_ ^= rng_ >> 7;
    rng_ ^= rng_ << 17;
    return rng_ % 100;
  }

  /// Shuttle frames between one client connection and a fresh upstream
  /// connection until either side dies (the client reconnecting after a
  /// dropped frame lands back in accept_loop).
  void pump(util::Socket& client) {
    util::Socket upstream = util::connect_tcp(
        upstream_, util::NetClock::now() + std::chrono::seconds(1));
    if (!upstream.valid()) return;
    while (!stop_.load(std::memory_order_relaxed)) {
      struct pollfd fds[2] = {};
      fds[0].fd = client.fd();
      fds[0].events = POLLIN;
      fds[1].fd = upstream.fd();
      fds[1].events = POLLIN;
      if (util::poll_retry(fds, 2, 50) <= 0) continue;
      for (int dir = 0; dir < 2; ++dir) {
        if (!(fds[dir].revents & (POLLIN | POLLHUP | POLLERR))) continue;
        const int from = dir == 0 ? client.fd() : upstream.fd();
        const int to = dir == 0 ? upstream.fd() : client.fd();
        const bool to_client = dir == 1;
        const auto frame = util::recv_frame(
            from, util::NetClock::now() + std::chrono::milliseconds(300));
        if (!frame) return;  // closed or wedged: drop the pair
        if (!relay(*frame, to, to_client)) return;
      }
    }
  }

  /// Apply the fault schedule to one frame; false = kill the connection.
  bool relay(const std::string& frame, int to, bool to_client) {
    const auto deadline = util::NetClock::now() + std::chrono::seconds(1);
    const auto verdict = roll();
    if (verdict < 30) {  // drop: the client must retry under backoff
      ++dropped_;
      return true;
    }
    if (verdict < 38) {  // duplicate: the seq filter must discard one
      ++duplicated_;
      return util::send_frame(to, frame, deadline) &&
             util::send_frame(to, frame, deadline);
    }
    if (verdict < 46) {  // delay, still inside the client's deadline
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      ++forwarded_;
      return util::send_frame(to, frame, deadline);
    }
    if (verdict < 52) {
      if (to_client) {  // truncate: a torn response, then a dead conn
        ++truncated_;
        const std::uint32_t claimed =
            static_cast<std::uint32_t>(frame.size());
        unsigned char header[4] = {
            static_cast<unsigned char>(claimed & 0xff),
            static_cast<unsigned char>((claimed >> 8) & 0xff),
            static_cast<unsigned char>((claimed >> 16) & 0xff),
            static_cast<unsigned char>((claimed >> 24) & 0xff)};
        (void)::send(to, header, sizeof header, MSG_NOSIGNAL);
        (void)::send(to, frame.data(), frame.size() / 2, MSG_NOSIGNAL);
        return false;
      }
      ++dropped_;  // request direction: truncation behaves like a drop
      return true;
    }
    ++forwarded_;
    return util::send_frame(to, frame, deadline);
  }

  util::HostPort upstream_;
  std::uint64_t rng_;
  util::Socket listener_;
  std::uint16_t port_ = 0;
  std::thread th_;
  std::atomic<bool> stop_{false};
  std::atomic<std::size_t> dropped_{0};
  std::atomic<std::size_t> duplicated_{0};
  std::atomic<std::size_t> truncated_{0};
  std::atomic<std::size_t> forwarded_{0};
};

TEST(DistributedLease, ThirtyPercentFrameDropStillCompletesTheSweep) {
  const auto canonical = temp_path("chaos.jsonl");
  const auto journal = temp_path("chaos.journal");
  remove_run_files(canonical, 1);
  std::remove(journal.c_str());

  auto opt = service_options(journal, 1);
  ServerThread srv(opt);
  FaultProxy proxy(srv.port(), /*seed=*/0x9e3779b97f4a7c15ull);
  proxy.start();

  exp::LeaseWorkerOptions wopt;
  wopt.canonical_out = canonical;
  wopt.client.server = {"127.0.0.1", proxy.port()};
  wopt.client.op_timeout_ms = 150;
  wopt.client.retry_budget = 25;
  wopt.client.backoff_base_ms = 5;
  wopt.client.backoff_cap_ms = 40;
  const auto report = exp::run_lease_client_worker(fault_sweep(), wopt);

  proxy.stop();
  srv.stop();

  EXPECT_FALSE(report.orphaned)
      << "lossy but live network must not orphan the worker";
  EXPECT_TRUE(report.batch.ok());
  EXPECT_GE(report.leases_run, 1u);
  EXPECT_GT(report.retries, 0u) << "the fault schedule must have bitten";
  EXPECT_GT(proxy.dropped(), 0u);
  EXPECT_TRUE(srv.stats.completed);

  // The slot store holds every record exactly once; merged it is
  // byte-identical to the serial run.
  exp::StoreMerger merger;
  merger.add_store(exp::worker_store_path(canonical, 0, 1));
  const auto merge = merger.merge_to(canonical);
  EXPECT_EQ(merge.records, 18u);
  EXPECT_EQ(read_file(serial_store()), read_file(canonical));

  remove_run_files(canonical, 1);
  std::remove(journal.c_str());
}

// ------------------------------------------------------------ the fleet --

/// Self-exec'd lease worker: rebuild the sweep, wire up the lease client,
/// apply targeted fault hooks, exit with the distinct orphaned status
/// when the server is lost.
int lease_worker_main(int argc, char** argv) {
  std::string out, marker, lease_server;
  std::optional<exp::WorkerSlot> slot;
  bool resume = false;
  std::size_t fault_slot = exp::WorkerTestHooks::kOff;
  std::size_t stall_slot = exp::WorkerTestHooks::kOff;
  exp::WorkerTestHooks die_hooks;
  exp::WorkerTestHooks stall_hooks;
  exp::LeaseWorkerOptions wopt;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&] { return std::string(i + 1 < argc ? argv[++i] : "0"); };
    if (arg == "--out") {
      out = value();
    } else if (arg == "--worker-slot") {
      slot = exp::WorkerSlot::parse(value());
    } else if (arg == "--lease-server") {
      lease_server = value();
    } else if (arg == "--resume") {
      resume = true;
    } else if (arg == "--fault-slot") {
      fault_slot = std::stoul(value());
    } else if (arg == "--die-after") {
      die_hooks.die_after_n_jobs = std::stoul(value());
    } else if (arg == "--kill") {
      die_hooks.die_with_sigkill = true;
    } else if (arg == "--stall-slot") {
      stall_slot = std::stoul(value());
    } else if (arg == "--stall-after") {
      stall_hooks.stall_after_n_jobs = std::stoul(value());
    } else if (arg == "--stall-ms") {
      stall_hooks.stall_ms = static_cast<std::uint32_t>(std::stoul(value()));
    } else if (arg == "--marker") {
      marker = value();
    } else if (arg == "--retry-budget") {
      wopt.client.retry_budget = std::stoul(value());
    } else if (arg == "--op-timeout-ms") {
      wopt.client.op_timeout_ms =
          static_cast<std::uint32_t>(std::stoul(value()));
    } else if (arg == "--backoff-base-ms") {
      wopt.client.backoff_base_ms =
          static_cast<std::uint32_t>(std::stoul(value()));
    } else if (arg == "--backoff-cap-ms") {
      wopt.client.backoff_cap_ms =
          static_cast<std::uint32_t>(std::stoul(value()));
    }
  }
  const auto server = util::HostPort::parse(lease_server);
  if (out.empty() || !slot || !server) return 2;

  wopt.canonical_out = out;
  wopt.merge_resume = resume;
  wopt.client.server = *server;
  wopt.client.slot = slot->index;
  wopt.client.slot_count = slot->count;
  if (slot->index == fault_slot) {
    wopt.hooks = die_hooks;
    wopt.hooks.once_marker = marker;
  } else if (slot->index == stall_slot) {
    wopt.hooks = stall_hooks;
  }
  const auto report = exp::run_lease_client_worker(fault_sweep(), wopt);
  if (report.orphaned) return exp::kOrphanedExitCode;
  return report.batch.ok() ? 0 : 1;
}

/// Self-exec'd lease server over fault_sweep(): publishes its ephemeral
/// port atomically, serves until the sweep completes (+linger), and dumps
/// its final stats as key-value lines for the parent test to assert on.
int lease_server_main(int argc, char** argv) {
  std::string journal, portfile, statsfile;
  std::size_t slots = 1;
  std::uint32_t linger_ms = 300;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&] { return std::string(i + 1 < argc ? argv[++i] : "0"); };
    if (arg == "--journal") {
      journal = value();
    } else if (arg == "--portfile") {
      portfile = value();
    } else if (arg == "--statsfile") {
      statsfile = value();
    } else if (arg == "--slots") {
      slots = std::stoul(value());
    } else if (arg == "--linger-ms") {
      linger_ms = static_cast<std::uint32_t>(std::stoul(value()));
    }
  }
  if (journal.empty() || portfile.empty()) return 2;

  exp::LeaseServiceOptions opt;
  opt.jobs = fault_sweep().size();
  opt.slots = slots;
  opt.journal_path = journal;
  opt.linger_ms = linger_ms;
  try {
    exp::LeaseService svc(opt);
    svc.start();
    util::write_file_atomic(portfile, std::to_string(svc.port()));
    const auto stats = svc.run();
    if (!statsfile.empty()) {
      std::ostringstream os;
      os << "completed " << (stats.completed ? 1 : 0) << "\n"
         << "grants " << stats.grants << "\n"
         << "steals " << stats.steals << "\n"
         << "reassigns " << stats.reassigns << "\n"
         << "expirations " << stats.expirations << "\n"
         << "fenced " << stats.fenced << "\n"
         << "replayed_records " << stats.replayed_records << "\n"
         << "torn_journal_records " << stats.torn_journal_records << "\n"
         << "client_retries " << stats.client_retries << "\n";
      util::write_file_atomic(statsfile, os.str());
    }
    return stats.completed ? 0 : 1;
  } catch (const SimulationError&) {
    return 2;
  }
}

}  // namespace
}  // namespace oracle

int main(int argc, char** argv) {
  if (argc > 1 && std::string(argv[1]) == "--lease-worker")
    return oracle::lease_worker_main(argc, argv);
  if (argc > 1 && std::string(argv[1]) == "--lease-server-role")
    return oracle::lease_server_main(argc, argv);
  oracle::g_self = argv[0];
  ::testing::InitGoogleTest(&argc, argv);
  return RUN_ALL_TESTS();
}
