#include "common.hpp"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/stat.h>
#include <sys/statfs.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <random>
#include <regex>
#include <sstream>
#include <thread>

#include "exp/aggregate.hpp"
#include "exp/batch.hpp"
#include "exp/job_queue.hpp"
#include "exp/result_sink.hpp"
#include "util/string_util.hpp"

extern char** environ;

namespace perfbench {

namespace fs = std::filesystem;

void Result::check(bool ok, const std::string& what) {
  if (ok) return;
  correct = false;
  failures.push_back(what);
}

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double h = (static_cast<double>(v.size()) - 1.0) * p / 100.0;
  const auto lo = static_cast<std::size_t>(std::floor(h));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (h - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double peak_rss_mb_self() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

double peak_rss_mb_children() {
  rusage ru{};
  ::getrusage(RUSAGE_CHILDREN, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

namespace {

std::vector<char*> c_argv(const std::vector<std::string>& argv) {
  std::vector<char*> out;
  for (const auto& a : argv) out.push_back(const_cast<char*>(a.c_str()));
  out.push_back(nullptr);
  return out;
}

/// waitpid with a deadline; SIGKILL (and reap) when it passes.
int wait_pid(pid_t pid, double timeout_s) {
  const auto t0 = Clock::now();
  int status = 0;
  while (true) {
    const pid_t r = ::waitpid(pid, &status, WNOHANG);
    if (r == pid) break;
    if (r < 0) return 255;
    if (seconds_since(t0) > timeout_s) {
      ::kill(pid, SIGKILL);
      ::waitpid(pid, &status, 0);
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  if (WIFEXITED(status)) return WEXITSTATUS(status);
  if (WIFSIGNALED(status)) return 128 + WTERMSIG(status);
  return 255;
}

}  // namespace

Child::Child(const std::vector<std::string>& argv,
             const std::string& stderr_path) {
  int fds[2];
  if (::pipe2(fds, O_CLOEXEC) != 0)
    throw std::runtime_error("pipe failed");
  posix_spawn_file_actions_t fa;
  posix_spawn_file_actions_init(&fa);
  posix_spawn_file_actions_addopen(&fa, 0, "/dev/null", O_RDONLY, 0);
  posix_spawn_file_actions_adddup2(&fa, fds[1], 1);
  posix_spawn_file_actions_addopen(&fa, 2, stderr_path.c_str(),
                                   O_WRONLY | O_CREAT | O_APPEND, 0644);
  auto args = c_argv(argv);
  const int rc =
      ::posix_spawn(&pid_, args[0], &fa, nullptr, args.data(), environ);
  posix_spawn_file_actions_destroy(&fa);
  ::close(fds[1]);
  if (rc != 0) {
    ::close(fds[0]);
    pid_ = -1;
    throw std::runtime_error("cannot start " + argv[0]);
  }
  out_fd_ = fds[0];
}

Child::~Child() {
  if (pid_ > 0) {
    ::kill(pid_, SIGKILL);
    ::waitpid(pid_, nullptr, 0);
  }
  if (out_fd_ >= 0) ::close(out_fd_);
}

bool Child::read_line(std::string& line, double timeout_s) {
  const auto t0 = Clock::now();
  while (true) {
    const auto nl = buffered_.find('\n');
    if (nl != std::string::npos) {
      line = buffered_.substr(0, nl);
      buffered_.erase(0, nl + 1);
      return true;
    }
    const double left = timeout_s - seconds_since(t0);
    if (out_fd_ < 0 || left <= 0) return false;
    pollfd p{out_fd_, POLLIN, 0};
    if (::poll(&p, 1, static_cast<int>(left * 1000) + 1) <= 0) continue;
    char buf[4096];
    const ssize_t n = ::read(out_fd_, buf, sizeof buf);
    if (n <= 0) {
      ::close(out_fd_);
      out_fd_ = -1;
      continue;
    }
    buffered_.append(buf, static_cast<std::size_t>(n));
  }
}

std::string Child::read_rest(double timeout_s) {
  std::string out;
  std::string line;
  while (read_line(line, timeout_s)) out += line + "\n";
  out += buffered_;
  buffered_.clear();
  return out;
}

void Child::signal(int sig) {
  if (pid_ > 0) ::kill(pid_, sig);
}

int Child::wait(double timeout_s) {
  if (pid_ <= 0) return 255;
  const int code = wait_pid(pid_, timeout_s);
  pid_ = -1;
  return code;
}

double Child::peak_rss_mb() const {
  // VmHWM belongs to the address space exec created; the rusage maxrss of
  // a spawned child starts from the spawning process's own peak.
  std::ifstream in("/proc/" + std::to_string(pid_) + "/status");
  std::string line;
  while (std::getline(in, line))
    if (line.rfind("VmHWM:", 0) == 0)
      return std::stod(line.substr(6)) / 1024.0;
  return 0.0;
}

int run_command(const std::vector<std::string>& argv,
                const std::string& log_path, double timeout_s) {
  posix_spawn_file_actions_t fa;
  posix_spawn_file_actions_init(&fa);
  posix_spawn_file_actions_addopen(&fa, 0, "/dev/null", O_RDONLY, 0);
  posix_spawn_file_actions_addopen(&fa, 1, log_path.c_str(),
                                   O_WRONLY | O_CREAT | O_APPEND, 0644);
  posix_spawn_file_actions_adddup2(&fa, 1, 2);
  auto args = c_argv(argv);
  pid_t pid = -1;
  const int rc = ::posix_spawn(&pid, args[0], &fa, nullptr, args.data(), environ);
  posix_spawn_file_actions_destroy(&fa);
  if (rc != 0) return 255;
  return wait_pid(pid, timeout_s);
}

std::size_t dropped_in_log(const std::string& log) {
  static const std::regex re("trace buffer overflow: ([0-9]+) event");
  std::size_t total = 0;
  for (auto it = std::sregex_iterator(log.begin(), log.end(), re);
       it != std::sregex_iterator(); ++it)
    total += std::stoull((*it)[1].str());
  return total;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

void write_file(const std::string& path, const std::string& data) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << data;
}

void make_dirs(const std::string& path) { fs::create_directories(path); }

void remove_tree(const std::string& path) {
  std::error_code ec;
  fs::remove_all(path, ec);
}

std::uint64_t fnv1a(const std::string& data) {
  std::uint64_t h = 1469598103934665603ull;
  for (const unsigned char c : data) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

core::SweepSpec grid_spec(const std::string& workload,
                          std::vector<std::uint64_t> seeds) {
  core::SweepSpec spec;  // the three default topologies
  spec.strategies = {"cwn", "acwn", "gm", "random"};
  spec.workloads = {workload};
  spec.seeds = std::move(seeds);
  return spec;
}

std::vector<std::uint64_t> seed_range(std::uint64_t first, std::size_t count) {
  std::vector<std::uint64_t> out(count);
  for (std::size_t i = 0; i < count; ++i) out[i] = first + i;
  return out;
}

void check_store(Result& res, const std::string& store_path,
                 const core::SweepSpec& spec) {
  const oracle::exp::JobQueue queue(spec.build());
  std::ifstream in(store_path, std::ios::binary);
  std::string line;
  std::size_t i = 0;
  bool parse_ok = true, dense_ok = true, hash_ok = true;
  while (std::getline(in, line)) {
    const auto rec = oracle::exp::parse_jsonl_record(line);
    if (!rec) {
      parse_ok = false;
    } else if (i < queue.size()) {
      if (rec->job_index != queue.job(i).index) dense_ok = false;
      if (rec->content_hash != queue.job(i).content_hash) hash_ok = false;
    }
    ++i;
  }
  res.check(parse_ok, "store " + store_path + ": a line does not parse");
  res.check(i == queue.size(),
            oracle::strfmt("store %s: %zu records, expected %zu",
                           store_path.c_str(), i, queue.size()));
  res.check(dense_ok, "store " + store_path + ": job indices not dense/ordered");
  res.check(hash_ok, "store " + store_path + ": content hash mismatch");
}

core::SweepSpec fixture_spec() { return grid_spec("fib:9", seed_range(1, 800)); }

std::string ensure_fixture(const Options& opt) {
  make_dirs(opt.fixture_dir);
  const std::string store = opt.fixture_dir + "/store.jsonl";
  const std::string key_path = opt.fixture_dir + "/key";
  // Keyed by this binary: a rebuilt library may write other bytes.
  struct stat st {};
  std::string key = "none";
  if (::stat("/proc/self/exe", &st) == 0)
    key = oracle::strfmt("%lld:%lld", static_cast<long long>(st.st_size),
                         static_cast<long long>(st.st_mtime));
  if (read_file(key_path) == key && fs::exists(store)) return store;

  const std::string tmp = opt.fixture_dir + "/building.jsonl";
  oracle::exp::BatchOptions bo;
  bo.jsonl_path = tmp;
  bo.exec.workers = opt.nproc;
  bo.collect = false;
  const auto outcome = oracle::exp::run_batch(fixture_spec().build(), bo);
  if (!outcome.report.ok())
    throw std::runtime_error("fixture build: simulation failures");
  fs::rename(tmp, store);
  std::error_code ec;
  fs::remove(tmp + ".ckpt", ec);  // only the store is a fixture
  write_file(key_path, key);
  return store;
}

core::SweepSpec warm_spec(std::size_t topology, std::uint64_t first_seed) {
  core::SweepSpec spec = fixture_spec();
  spec.topologies = {spec.topologies.at(topology)};
  spec.seeds = seed_range(first_seed, 64);
  return spec;
}

std::vector<std::pair<std::size_t, std::uint64_t>> warm_windows(
    std::uint64_t seed, std::size_t count) {
  const core::SweepSpec fixture = fixture_spec();
  const std::size_t topologies = fixture.topologies.size();
  const std::uint64_t last_first = fixture.seeds.size() - 64 + 1;
  std::mt19937_64 rng(seed * 0x9e3779b97f4a7c15ull + 256);
  std::vector<std::pair<std::size_t, std::uint64_t>> out;
  for (std::size_t i = 0; i < count; ++i)
    out.emplace_back(rng() % topologies, 1 + rng() % last_first);
  return out;
}

FixtureLines::FixtureLines(const std::string& store) {
  std::ifstream in(store, std::ios::binary);
  std::string line;
  while (std::getline(in, line)) {
    const auto rec = oracle::exp::parse_jsonl_record(line);
    if (!rec) continue;
    by_hash_.emplace(rec->content_hash, lines_.size());
    lines_.push_back(line);
  }
}

std::string FixtureLines::reference_table(const core::SweepSpec& spec) const {
  oracle::exp::Aggregator agg;
  const oracle::exp::JobQueue queue(spec.build());
  for (const auto& job : queue.jobs()) {
    const auto it = by_hash_.find(job.content_hash);
    if (it != by_hash_.end()) agg.add_line(lines_[it->second]);
  }
  return oracle::exp::Aggregator::to_table(agg.summarize(), "speedup");
}

double job_wall_inflation(const Options& opt) {
  const auto all = grid_spec("fib:16", seed_range(1, 96)).build();
  std::mt19937_64 rng(opt.seed * 0x9e3779b97f4a7c15ull + 144);
  std::vector<std::size_t> idx(all.size());
  for (std::size_t i = 0; i < idx.size(); ++i) idx[i] = i;
  for (std::size_t i = 0; i < 144; ++i)
    std::swap(idx[i], idx[i + rng() % (idx.size() - i)]);
  idx.resize(144);
  std::sort(idx.begin(), idx.end());
  std::vector<oracle::core::ExperimentConfig> subset;
  for (const auto i : idx) subset.push_back(all[i]);

  auto mean_wall = [&](std::size_t workers) {
    oracle::exp::BatchOptions bo;
    bo.exec.workers = workers;
    bo.collect = false;
    return oracle::exp::run_batch(subset, bo).report.job_wall.mean_s;
  };
  const double serial = mean_wall(1);
  const double parallel = mean_wall(opt.nproc);
  return serial > 0 ? parallel / serial : 0.0;
}

std::vector<std::pair<std::string, std::string>> fingerprint(
    const Options& opt) {
  std::string cpu = "unknown";
  {
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
      if (line.rfind("model name", 0) == 0) {
        const auto colon = line.find(':');
        if (colon != std::string::npos) cpu = oracle::trim(line.substr(colon + 1));
        break;
      }
    }
  }
  std::string fs_name = "unknown";
  struct statfs sfs {};
  if (::statfs(opt.out_dir.c_str(), &sfs) == 0) {
    switch (static_cast<unsigned long>(sfs.f_type)) {
      case 0xEF53: fs_name = "ext4"; break;
      case 0x58465342: fs_name = "xfs"; break;
      case 0x9123683E: fs_name = "btrfs"; break;
      case 0x01021994: fs_name = "tmpfs"; break;
      case 0x794c7630: fs_name = "overlayfs"; break;
      default:
        fs_name = oracle::strfmt("0x%lx", static_cast<unsigned long>(sfs.f_type));
    }
  }
  return {{"nproc", std::to_string(opt.nproc)},
          {"cpu_model", cpu},
          {"build_type", PERFBENCH_BUILD_TYPE},
          {"store_fs", fs_name}};
}

void add_lb_metrics(Result& res, const std::string& store_path) {
  std::ifstream in(store_path, std::ios::binary);
  std::string line;
  double goals = 0, ctrl = 0, hops = 0;
  while (std::getline(in, line)) {
    const auto rec = oracle::exp::parse_jsonl_record(line);
    if (!rec) continue;
    const auto& r = rec->result;
    goals += static_cast<double>(r.goals_executed);
    ctrl += static_cast<double>(r.control_transmissions);
    hops += r.avg_goal_distance * static_cast<double>(r.goals_executed);
  }
  if (goals <= 0) return;
  res.layers.emplace_back("lb.control_msgs_per_goal", ctrl / goals);
  res.layers.emplace_back("lb.goal_hops_mean", hops / goals);
}

}  // namespace perfbench
