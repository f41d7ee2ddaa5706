#include "exp/shard.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <sstream>
#include <thread>
#include <unordered_map>
#include <unordered_set>

#include "exp/batch.hpp"
#include "exp/job_queue.hpp"
#include "exp/lease_client.hpp"
#include "exp/result_sink.hpp"
#include "obs/status.hpp"
#include "obs/trace.hpp"
#include "util/error.hpp"
#include "util/file_util.hpp"
#include "util/log.hpp"
#include "util/posix_io.hpp"
#include "util/string_util.hpp"

#if !defined(_WIN32)
#include <csignal>
#include <fcntl.h>
#include <sys/wait.h>
#include <unistd.h>
#endif

namespace oracle::exp {

// -------------------------------------------------------------- ShardSpec --

std::optional<ShardSpec> ShardSpec::parse(const std::string& text) {
  const auto slash = text.find('/');
  if (slash == std::string::npos || slash == 0 || slash + 1 >= text.size())
    return std::nullopt;
  std::int64_t index = 0, count = 0;
  try {
    index = parse_int(trim(text.substr(0, slash)), "shard index");
    count = parse_int(trim(text.substr(slash + 1)), "shard count");
  } catch (const ConfigError&) {
    return std::nullopt;
  }
  // Validate on the signed values: a negative count must not wrap into a
  // huge modulus that silently assigns (almost) no jobs to any worker.
  if (index < 0 || count < 1 || index >= count) return std::nullopt;
  return ShardSpec{static_cast<std::size_t>(index),
                   static_cast<std::size_t>(count)};
}

std::string ShardSpec::to_string() const {
  return strfmt("%zu/%zu", index, count);
}

std::string shard_store_path(const std::string& canonical_store,
                             std::size_t index, std::size_t count) {
  return canonical_store + strfmt(".shard%zuof%zu", index, count);
}

std::string worker_store_path(const std::string& canonical_store,
                              std::size_t slot, std::size_t count) {
  return canonical_store + strfmt(".worker%zuof%zu", slot, count);
}

std::string worker_lease_path(const std::string& canonical_store,
                              std::size_t slot, std::size_t count) {
  return canonical_store + strfmt(".lease%zuof%zu", slot, count);
}

std::string worker_heartbeat_path(const std::string& canonical_store,
                                  std::size_t slot, std::size_t count) {
  return canonical_store + strfmt(".hb%zuof%zu", slot, count);
}

// ------------------------------------------------------------ lease files --

namespace {

std::atomic<std::size_t> g_lease_torn_reads{0};

/// Checksum over the lease payload: catches a torn write whose prefix
/// still parses as plausible numbers (observed on filesystems where the
/// tmp+rename dance is not atomic against concurrent readers).
std::uint64_t lease_checksum(const Lease& lease) {
  return fnv1a64(strfmt("%llu %zu %zu",
                        static_cast<unsigned long long>(lease.generation),
                        lease.begin, lease.end));
}

}  // namespace

std::size_t lease_file_torn_reads() noexcept {
  return g_lease_torn_reads.load(std::memory_order_relaxed);
}

void write_lease_file(const std::string& path, const Lease& lease) {
  util::write_file_atomic(
      path, strfmt("v2 %llu %zu %zu %016llx\n",
                   static_cast<unsigned long long>(lease.generation),
                   lease.begin, lease.end,
                   static_cast<unsigned long long>(lease_checksum(lease))));
}

std::optional<Lease> read_lease_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) return std::nullopt;
  const auto torn = [] {
    g_lease_torn_reads.fetch_add(1, std::memory_order_relaxed);
    return std::nullopt;
  };
  std::string tag;
  unsigned long long generation = 0, begin = 0, end = 0;
  if (!(in >> tag >> generation >> begin >> end)) return torn();
  Lease lease;
  lease.generation = generation;
  lease.begin = static_cast<std::size_t>(begin);
  lease.end = static_cast<std::size_t>(end);
  if (begin > end) return torn();
  if (tag == "v1") return lease;  // pre-checksum files stay readable
  if (tag != "v2") return torn();
  std::string cksum_hex;
  unsigned long long cksum = 0;
  if (!(in >> cksum_hex) ||
      std::sscanf(cksum_hex.c_str(), "%llx", &cksum) != 1 ||
      cksum != lease_checksum(lease))
    return torn();
  return lease;
}

// ------------------------------------------------------------- LeaseTable --

LeaseTable::LeaseTable(std::size_t jobs, std::size_t slots) : jobs_(jobs) {
  slots_.resize(std::max<std::size_t>(slots, 1));
  const std::size_t w = slots_.size();
  for (std::size_t i = 0; i < w; ++i) {
    slots_[i].current.begin = jobs * i / w;
    slots_[i].current.end = jobs * (i + 1) / w;
    // A zero-size lease (more slots than jobs) is born drained: its worker
    // has nothing to do and any steal immediately re-arms it.
    slots_[i].drained = slots_[i].current.empty();
  }
}

void LeaseTable::mark_drained(std::size_t slot) {
  slots_[slot].drained = true;
}

bool LeaseTable::all_drained() const {
  return std::all_of(slots_.begin(), slots_.end(),
                     [](const Slot& s) { return s.drained; });
}

std::optional<Lease> LeaseTable::steal(std::size_t victim, std::size_t thief,
                                       std::size_t split) {
  if (victim >= slots_.size() || thief >= slots_.size() || victim == thief)
    return std::nullopt;
  Slot& v = slots_[victim];
  Slot& t = slots_[thief];
  // Only a live victim has an unclaimed tail, and only a drained thief may
  // abandon its old lease; `split` must leave the victim a non-empty head
  // and the thief a non-empty tail.
  if (v.drained || !t.drained) return std::nullopt;
  if (split <= v.current.begin || split >= v.current.end) return std::nullopt;

  if (!t.current.empty())
    retired_.emplace_back(t.current.begin, t.current.end);
  t.current.generation += 1;
  t.current.begin = split;
  t.current.end = v.current.end;
  t.drained = false;
  v.current.generation += 1;
  v.current.end = split;
  return t.current;
}

std::optional<Lease> LeaseTable::reassign(std::size_t victim,
                                          std::size_t thief,
                                          std::size_t frontier) {
  if (victim >= slots_.size() || thief >= slots_.size() || victim == thief)
    return std::nullopt;
  Slot& v = slots_[victim];
  Slot& t = slots_[thief];
  if (v.drained || !t.drained) return std::nullopt;
  if (frontier < v.current.begin || frontier > v.current.end)
    return std::nullopt;

  // The committed head retires; the victim's lease collapses to empty at
  // the split point so the partition invariant keeps holding.
  if (frontier > v.current.begin)
    retired_.emplace_back(v.current.begin, frontier);
  const std::size_t end = v.current.end;
  v.current.generation += 1;
  v.current.begin = frontier;
  v.current.end = frontier;
  v.drained = true;

  if (frontier == end) return std::nullopt;  // fully committed: no tail

  if (!t.current.empty())
    retired_.emplace_back(t.current.begin, t.current.end);
  t.current.generation += 1;
  t.current.begin = frontier;
  t.current.end = end;
  t.drained = false;
  return t.current;
}

bool LeaseTable::partitions_queue() const {
  std::vector<std::pair<std::size_t, std::size_t>> ranges = retired_;
  for (const auto& s : slots_)
    if (!s.current.empty())
      ranges.emplace_back(s.current.begin, s.current.end);
  std::sort(ranges.begin(), ranges.end());
  std::size_t next = 0;
  for (const auto& [b, e] : ranges) {
    if (b != next || e <= b) return false;
    next = e;
  }
  return next == jobs_;
}

// ------------------------------------------------------- HeartbeatMonitor --

void HeartbeatMonitor::start(std::size_t slot, TimePoint now) {
  State& s = slots_[slot];
  s.value = -1;
  s.last_change = now;
  s.armed = true;
}

std::optional<double> HeartbeatMonitor::observe(std::size_t slot,
                                                std::int64_t value,
                                                TimePoint now) {
  const auto it = slots_.find(slot);
  if (it == slots_.end() || !it->second.armed) return std::nullopt;
  if (value == it->second.value) return std::nullopt;
  const bool first = it->second.value < 0;
  const double interval =
      std::chrono::duration<double>(now - it->second.last_change).count();
  it->second.value = value;
  it->second.last_change = now;
  // The first change after (re)arming measures spawn latency, not job
  // pace; it is not an interval worth feeding the adaptive timeout.
  if (first) return std::nullopt;
  return interval;
}

bool HeartbeatMonitor::stale(std::size_t slot, TimePoint now) const {
  const auto it = slots_.find(slot);
  if (it == slots_.end() || !it->second.armed) return false;
  return now - it->second.last_change > timeout_;
}

double HeartbeatMonitor::age_seconds(std::size_t slot, TimePoint now) const {
  const auto it = slots_.find(slot);
  if (it == slots_.end() || !it->second.armed) return -1.0;
  return std::chrono::duration<double>(now - it->second.last_change).count();
}

void HeartbeatMonitor::stop(std::size_t slot) {
  const auto it = slots_.find(slot);
  if (it != slots_.end()) it->second.armed = false;
}

// -------------------------------------------------------- AdaptiveTimeout --

void AdaptiveTimeout::seed(const DurationStats& stats) {
  if (stats.count == 0) return;
  // The p99 stands in for the whole prior distribution; the max keeps the
  // whale guard honest even when the seed run had one extreme outlier.
  record(stats.p99_s);
  record(stats.max_s);
}

void AdaptiveTimeout::record(double seconds) {
  if (!(seconds > 0.0)) return;
  const std::size_t window = std::max<std::size_t>(config_.window, 1);
  if (window_.size() < window) {
    window_.push_back(seconds);
  } else {
    window_[next_] = seconds;
    next_ = (next_ + 1) % window;
  }
  ++count_;
  max_sample_ = std::max(max_sample_, seconds);
}

double AdaptiveTimeout::timeout_seconds() const {
  if (window_.empty()) return std::numeric_limits<double>::infinity();
  std::vector<double> sorted(window_);
  std::sort(sorted.begin(), sorted.end());
  const auto idx = static_cast<std::size_t>(
      0.99 * static_cast<double>(sorted.size() - 1) + 0.5);
  const double p99 = sorted[std::min(idx, sorted.size() - 1)];
  const double raw = std::max(p99 * config_.multiplier, max_sample_ * 2.0);
  return std::clamp(raw, config_.floor_s, config_.cap_s);
}

// ------------------------------------------------------------- quarantine --

std::string quarantine_path(const std::string& canonical_store) {
  return canonical_store + ".quarantine";
}

std::vector<QuarantineEntry> read_quarantine_file(const std::string& path) {
  std::vector<QuarantineEntry> entries;
  std::ifstream in(path);
  if (!in) return entries;
  std::string hash_str;
  unsigned long long index = 0;
  while (in >> hash_str >> index) {
    QuarantineEntry e;
    if (!parse_hash_hex(hash_str, e.content_hash)) continue;  // torn tail
    e.job_index = static_cast<std::size_t>(index);
    entries.push_back(e);
  }
  return entries;
}

void append_quarantine_entry(const std::string& path,
                             const QuarantineEntry& entry) {
#if defined(_WIN32)
  std::ofstream out(path, std::ios::app);
  out << hash_hex(entry.content_hash) << ' ' << entry.job_index << '\n';
#else
  const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
  if (fd < 0)
    throw SimulationError("cannot open quarantine file '" + path + "'");
  const std::string line =
      hash_hex(entry.content_hash) + strfmt(" %zu\n", entry.job_index);
  const bool ok =
      util::write_full(fd, line.data(), line.size()) && util::fsync_retry(fd);
  ::close(fd);
  if (!ok)
    throw SimulationError("quarantine append to '" + path + "' failed");
#endif
}

// -------------------------------------------------------------- ShardPlan --

ShardPlan::ShardPlan(const JobQueue& queue, std::size_t count)
    : hashes_(std::max<std::size_t>(count, 1)), total_(queue.size()) {
  for (const auto& job : queue.jobs())
    hashes_[shard_of_hash(job.content_hash, hashes_.size())].push_back(
        job.content_hash);
}

std::vector<std::size_t> ShardPlan::incomplete_shards(
    const std::string& canonical_store,
    const std::unordered_set<std::uint64_t>& already_done) const {
  std::vector<std::size_t> out;
  for (std::size_t i = 0; i < hashes_.size(); ++i) {
    if (hashes_[i].empty()) continue;
    const std::string store = shard_store_path(canonical_store, i,
                                               hashes_.size());
    const auto done = load_completed_hashes(store);
    const bool incomplete = std::any_of(
        hashes_[i].begin(), hashes_[i].end(), [&](std::uint64_t h) {
          return !done.contains(h) && !already_done.contains(h);
        });
    if (incomplete) out.push_back(i);
  }
  return out;
}

// ------------------------------------------------------------ ShardMerger --

void ShardMerger::add_store(const std::string& path) {
  std::ifstream in(path);
  if (!in) return;  // a shard with no work never creates its store
  ++report_.stores_read;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    const auto rec = parse_jsonl_record(line);
    if (!rec) {
      ++report_.corrupt_lines;  // a killed worker's partial tail line
      continue;
    }
    records_.push_back({rec->job_index, rec->content_hash, line});
  }
}

MergeReport ShardMerger::merge_to(const std::string& canonical_path) {
  // Job order is the serial engine's commit order, so sorting by job index
  // reproduces a serial run byte-for-byte (records themselves are written
  // deterministically by the sinks). stable_sort keeps first-seen order
  // for duplicate hashes, which the dedup below then collapses.
  std::stable_sort(records_.begin(), records_.end(),
                   [](const Record& a, const Record& b) {
                     return a.job_index < b.job_index;
                   });

  const std::string tmp = canonical_path + ".merge.tmp";
  {
    std::ofstream store(tmp, std::ios::out | std::ios::trunc);
    if (!store)
      throw SimulationError("cannot open '" + tmp + "' for writing");
    std::unordered_set<std::uint64_t> seen;
    seen.reserve(records_.size());
    for (const auto& rec : records_) {
      if (!seen.insert(rec.content_hash).second) {
        ++report_.duplicates_dropped;
        continue;
      }
      store << rec.line << '\n';
      ++report_.records;
    }
    store.flush();
    if (!store)
      throw SimulationError("merge write to '" + tmp + "' failed");
  }
  util::atomic_replace(tmp, canonical_path);
  return report_;
}

// ------------------------------------------------------- run_lease_worker --

namespace {

[[noreturn]] void fire_death_fault(bool with_sigkill) {
#if defined(_WIN32)
  (void)with_sigkill;
  std::_Exit(1);
#else
  if (with_sigkill) {
    ::raise(SIGKILL);
    // raise() cannot return for SIGKILL, but keep the compiler satisfied.
  }
  ::_exit(1);
#endif
}

}  // namespace

BatchReport run_lease_worker(const std::vector<core::ExperimentConfig>& configs,
                             const LeaseWorkerOptions& options) {
  ORACLE_REQUIRE(!options.canonical_out.empty(),
                 "lease workers need the canonical --out store path");
  ORACLE_REQUIRE(options.slot < std::max<std::size_t>(options.slot_count, 1),
                 "lease worker slot out of range");
  const std::string store =
      worker_store_path(options.canonical_out, options.slot,
                        options.slot_count);
  const std::string lease_path =
      worker_lease_path(options.canonical_out, options.slot,
                        options.slot_count);
  const std::string hb_path =
      worker_heartbeat_path(options.canonical_out, options.slot,
                            options.slot_count);

  // Missing/malformed lease file ⇒ empty lease: run zero jobs but still
  // leave a valid (possibly empty) store so the merge never trips over a
  // slot that had nothing to do.
  Lease lease;
  if (const auto l = read_lease_file(lease_path)) lease = *l;

  BatchOptions opt;
  opt.jsonl_path = store;
  opt.collect = false;
  opt.master_seed = options.master_seed;
  opt.lease_begin = lease.begin;
  opt.lease_end = lease.end;
  opt.heartbeat_path = hb_path;
  // Always append + skip-own-completed: the supervisor pre-cleans slot
  // files on a fresh run, so "resume" here only ever sees this run's own
  // durable prefix — which is exactly what a respawned worker must skip.
  opt.resume = true;
  opt.exec.workers = std::max<std::size_t>(1, options.threads);
  opt.exec.progress = false;
  if (options.merge_resume && util::file_exists(options.canonical_out))
    opt.extra_resume_stores.push_back(options.canonical_out);
  for (std::size_t j = 0; j < options.slot_count; ++j) {
    // Sibling stores: after a steal race the victim may already hold
    // records from this slot's lease; reading them up front avoids
    // re-running those jobs (re-running would still merge correctly).
    if (j == options.slot) continue;
    const auto sibling =
        worker_store_path(options.canonical_out, j, options.slot_count);
    if (util::file_exists(sibling)) opt.extra_resume_stores.push_back(sibling);
  }

  // Poison jobs already quarantined by the supervisor are pre-marked
  // completed: a respawned worker must not walk into the same crash.
  for (const auto& q :
       read_quarantine_file(quarantine_path(options.canonical_out)))
    opt.skip_hashes.push_back(q.content_hash);

  const ShardTestHooks hooks = options.hooks;
  auto fault_armed = [&hooks]() {
    return hooks.once_marker.empty() || !util::file_exists(hooks.once_marker);
  };
  auto mark_fired = [&hooks]() {
    if (!hooks.once_marker.empty()) util::touch_file(hooks.once_marker);
  };
  std::atomic<std::size_t> jobs_started{0};
  opt.exec.stop_before = [&](const ExperimentJob& job) {
    const std::size_t n =
        jobs_started.fetch_add(1, std::memory_order_relaxed);
    if ((n == hooks.die_after_n_jobs || job.index == hooks.die_on_job_index) &&
        fault_armed()) {
      mark_fired();
      fire_death_fault(hooks.die_with_sigkill);
    }
    if (n == hooks.stall_after_n_jobs && fault_armed()) {
      mark_fired();
      std::this_thread::sleep_for(std::chrono::milliseconds(hooks.stall_ms));
    }
    // The live lease check: the parent may have stolen our tail since the
    // last job. Anything at or past the current end belongs to the thief.
    const auto live = read_lease_file(lease_path);
    return live.has_value() && job.index >= live->end;
  };

  const auto outcome = run_batch(configs, opt);
  // Final liveness mark: a worker that skipped everything (fully resumed
  // lease) must still register a sign of life before exiting 0.
  util::touch_file(hb_path);
  return outcome.report;
}

// ------------------------------------------------ run_lease_client_worker --

namespace {

void accumulate_batch(BatchReport* into, const BatchReport& one) {
  into->total_jobs += one.total_jobs;
  into->skipped += one.skipped;
  into->executed += one.executed;
  into->failed += one.failed;
  into->cancelled += one.cancelled;
  into->total_events += one.total_events;
  into->elapsed_seconds += one.elapsed_seconds;
  for (const auto& e : one.errors)
    if (into->errors.size() < 16) into->errors.push_back(e);
  into->jobs_per_second =
      into->elapsed_seconds > 0
          ? static_cast<double>(into->executed) / into->elapsed_seconds
          : 0.0;
}

}  // namespace

LeaseWorkerReport run_lease_client_worker(
    const std::vector<core::ExperimentConfig>& configs,
    const LeaseWorkerOptions& options) {
  ORACLE_REQUIRE(!options.canonical_out.empty(),
                 "lease workers need the canonical --out store path");
  ORACLE_REQUIRE(!options.lease_server.empty(),
                 "run_lease_client_worker needs --lease-server");
  ORACLE_REQUIRE(options.slot < std::max<std::size_t>(options.slot_count, 1),
                 "lease worker slot out of range");
  const auto server = util::HostPort::parse(options.lease_server);
  if (!server)
    throw ConfigError("bad --lease-server address: " + options.lease_server);

  const std::string store =
      worker_store_path(options.canonical_out, options.slot,
                        options.slot_count);
  const std::string hb_path =
      worker_heartbeat_path(options.canonical_out, options.slot,
                            options.slot_count);

  LeaseClientOptions copt;
  copt.server = *server;
  copt.slot = options.slot;
  copt.slot_count = std::max<std::size_t>(options.slot_count, 1);
  copt.jobs = configs.size();
  copt.op_timeout_ms = options.op_timeout_ms;
  copt.retry_budget = options.retry_budget;
  copt.backoff_base_ms = options.backoff_base_ms;
  copt.backoff_cap_ms = options.backoff_cap_ms;
  copt.jitter_seed = fnv1a64(strfmt("lease-jitter %zu", options.slot));
  LeaseClient client(copt);

  LeaseWorkerReport report;
  auto finish = [&] {
    report.retries = client.retries();
    report.reconnects = client.reconnects();
    util::touch_file(hb_path);
    return report;
  };

  try {
    std::optional<LeaseGrant> grant = client.acquire();
    while (grant) {
      obs::Span lease_span("lease", "worker.lease", "begin",
                           static_cast<std::int64_t>(grant->begin), "end",
                           static_cast<std::int64_t>(grant->end));
      ORACLE_LOG_INFO(strfmt(
          "slot %zu leased [%zu,%zu) epoch %llu from %s", options.slot,
          grant->begin, grant->end,
          static_cast<unsigned long long>(grant->epoch),
          options.lease_server.c_str()));

      BatchOptions opt;
      opt.jsonl_path = store;
      opt.collect = false;
      opt.master_seed = options.master_seed;
      opt.lease_begin = grant->begin;
      opt.lease_end = grant->end;
      opt.heartbeat_path = hb_path;
      // Append + skip-own-completed, exactly like the file-protocol worker:
      // a respawned or re-leased worker must skip its own durable prefix.
      opt.resume = true;
      // The frontier the server fences on *is* the job index being
      // started: one executor thread, and stop_before runs only once
      // every earlier job is committed.
      opt.exec.workers = 1;
      opt.exec.progress = false;
      if (options.merge_resume && util::file_exists(options.canonical_out))
        opt.extra_resume_stores.push_back(options.canonical_out);
      for (std::size_t j = 0; j < options.slot_count; ++j) {
        if (j == options.slot) continue;
        const auto sibling =
            worker_store_path(options.canonical_out, j, options.slot_count);
        if (util::file_exists(sibling))
          opt.extra_resume_stores.push_back(sibling);
      }

      const ShardTestHooks hooks = options.hooks;
      auto fault_armed = [&hooks]() {
        return hooks.once_marker.empty() ||
               !util::file_exists(hooks.once_marker);
      };
      auto mark_fired = [&hooks]() {
        if (!hooks.once_marker.empty()) util::touch_file(hooks.once_marker);
      };

      std::size_t current_end = grant->end;
      bool fenced_mid_lease = false;
      std::size_t jobs_started = 0;
      auto last_commit = std::chrono::steady_clock::now();
      opt.exec.stop_before = [&](const ExperimentJob& job) {
        const std::size_t n = jobs_started++;
        if ((n == hooks.die_after_n_jobs ||
             job.index == hooks.die_on_job_index) &&
            fault_armed()) {
          mark_fired();
          fire_death_fault(hooks.die_with_sigkill);
        }
        if (n == hooks.stall_after_n_jobs && fault_armed()) {
          mark_fired();
          std::this_thread::sleep_for(
              std::chrono::milliseconds(hooks.stall_ms));
        }
        // Everything before job.index is durable (one executor thread), so
        // the commit is both the fencing check and the progress heartbeat;
        // its reply carries the (possibly stolen-from) current lease end.
        const auto now = std::chrono::steady_clock::now();
        const auto wall_us = static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::microseconds>(
                now - last_commit)
                .count());
        last_commit = now;
        const auto verdict =
            client.commit(grant->epoch, job.index, n == 0 ? 0 : wall_us,
                          &current_end);
        if (verdict == LeaseClient::CommitResult::kFenced) {
          fenced_mid_lease = true;
          report.fenced = true;
          return true;  // stop: our range now belongs to someone else
        }
        if (verdict == LeaseClient::CommitResult::kDone) return true;
        util::touch_file(hb_path);
        return job.index >= current_end;
      };

      const auto outcome = run_batch(configs, opt);
      accumulate_batch(&report.batch, outcome.report);
      ++report.leases_run;

      if (fenced_mid_lease) {
        // The server revoked this epoch (we were presumed dead). Our
        // durable records are harmless duplicates; ask for fresh work
        // under a fresh epoch.
        ORACLE_LOG_WARN(strfmt(
            "slot %zu fenced mid-lease (epoch %llu); re-acquiring",
            options.slot, static_cast<unsigned long long>(grant->epoch)));
        grant = client.acquire();
        continue;
      }

      // Lease drained: publish the final frontier, then ask for more.
      const auto verdict =
          client.commit(grant->epoch, current_end, 0, nullptr);
      if (verdict == LeaseClient::CommitResult::kDone) break;
      grant = client.next_lease(grant->epoch);
    }
  } catch (const LeaseOrphanedError& e) {
    // Committed prefix is already fsynced by the batch engine; surface the
    // distinct orphaned outcome so the launcher exits with its own code
    // and a later --resume reshapes leases around this worker's store.
    ORACLE_LOG_WARN(strfmt("slot %zu orphaned: %s", options.slot, e.what()));
    obs::instant("lease", "worker.orphaned", "slot",
                 static_cast<std::int64_t>(options.slot));
    report.orphaned = true;
  }
  return finish();
}

// ---------------------------------------------------------- process layer --

#if defined(_WIN32)

std::vector<WorkerExit> spawn_and_wait(
    const std::vector<std::vector<std::string>>&,
    const std::vector<std::size_t>&) {
  throw SimulationError("multi-process sharded runs require a POSIX host");
}

std::string self_exec_path(const std::string& argv0) { return argv0; }

namespace {

ShardRunReport run_stealing_processes(
    const std::vector<core::ExperimentConfig>&, const ShardRunOptions&) {
  throw SimulationError("work-stealing sharded runs require a POSIX host");
}

ShardRunReport run_lease_server_processes(
    const std::vector<core::ExperimentConfig>&, const ShardRunOptions&) {
  throw SimulationError("lease-server sharded runs require a POSIX host");
}

}  // namespace

#else

namespace {

/// Fork+exec one worker; returns its pid, or throws when fork fails (the
/// caller owns cleanup of any siblings). The child reports exec failure
/// through the conventional 127 exit code without parent-side cleanup.
pid_t spawn_one(const std::vector<std::string>& args) {
  std::vector<char*> argv;
  argv.reserve(args.size() + 1);
  for (const auto& arg : args) argv.push_back(const_cast<char*>(arg.c_str()));
  argv.push_back(nullptr);

  const pid_t pid = ::fork();
  if (pid < 0)
    throw SimulationError("fork failed for shard worker");
  if (pid == 0) {
    ::execv(argv[0], argv.data());
    std::fprintf(stderr, "oracle_batch: cannot exec '%s'\n", argv[0]);
    ::_exit(127);
  }
  return pid;
}

}  // namespace

std::vector<WorkerExit> spawn_and_wait(
    const std::vector<std::vector<std::string>>& argvs,
    const std::vector<std::size_t>& shards) {
  ORACLE_ASSERT(argvs.size() == shards.size());
  std::vector<pid_t> pids(argvs.size(), -1);
  std::vector<WorkerExit> exits(argvs.size());

  for (std::size_t k = 0; k < argvs.size(); ++k) {
    exits[k].shard = shards[k];
    try {
      pids[k] = spawn_one(argvs[k]);
    } catch (const SimulationError&) {
      // Don't strand the workers already launched: a concurrent retry
      // (--resume) would otherwise race them on the same shard stores.
      for (std::size_t j = 0; j < k; ++j) {
        if (pids[j] <= 0) continue;
        ::kill(pids[j], SIGKILL);
        int status = 0;
        ::waitpid(pids[j], &status, 0);
      }
      throw SimulationError("fork failed for shard worker " +
                            std::to_string(shards[k]));
    }
  }

  for (std::size_t k = 0; k < pids.size(); ++k) {
    int status = 0;
    if (::waitpid(pids[k], &status, 0) < 0) {
      exits[k].exit_code = 126;  // lost track of the child: treat as failed
      continue;
    }
    if (WIFEXITED(status)) {
      exits[k].exit_code = WEXITSTATUS(status);
    } else if (WIFSIGNALED(status)) {
      exits[k].term_signal = WTERMSIG(status);
    } else {
      exits[k].exit_code = 126;
    }
  }
  return exits;
}

std::string self_exec_path(const std::string& argv0) {
  char buf[4096];
  const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
  if (n > 0) {
    buf[n] = '\0';
    return std::string(buf);
  }
  return argv0;
}

// ------------------------------------------------- stealing supervisor --

namespace {

/// Per-slot process state the supervisor tracks between polls.
struct SlotProc {
  pid_t pid = -1;
  std::size_t restarts = 0;
  bool done = false;       ///< lease drained and nothing left to steal
  bool kill_sent = false;  ///< SIGKILL dispatched by the heartbeat monitor
};

ShardRunReport run_stealing_processes(
    const std::vector<core::ExperimentConfig>& configs,
    const ShardRunOptions& options) {
  using Clock = std::chrono::steady_clock;

  JobQueue queue(configs);
  if (options.master_seed != 0) queue.derive_seeds(options.master_seed);
  const std::size_t n = queue.size();

  ShardRunReport report;
  report.planned_jobs = n;

  // One worker per job at most: a lease of zero jobs buys nothing but a
  // process spawn (the empty-lease path still works — workers exit 0 with
  // an empty-but-valid store — it is just pointless to schedule).
  const std::size_t slots =
      std::max<std::size_t>(1, std::min(options.workers, n));

  std::unordered_set<std::uint64_t> canonical_done;
  if (options.resume) canonical_done = load_completed_hashes(options.out);

  // Quarantine lifecycle: a fresh run forgets old verdicts, --resume keeps
  // them (the poison jobs stay skipped), --resume --retry-quarantined
  // wipes the file so the recorded jobs get another chance.
  const std::string qpath = quarantine_path(options.out);
  if (!options.resume || options.retry_quarantined) util::remove_file(qpath);
  std::size_t prior_quarantined = 0;
  for (const auto& q : read_quarantine_file(qpath)) {
    canonical_done.insert(q.content_hash);
    ++prior_quarantined;
  }
  // Deaths per suspect job (the job at the victim's committed frontier):
  // max_restarts deaths on the *same* job quarantines it instead of
  // burning the slot's whole restart budget.
  std::unordered_map<std::uint64_t, std::size_t> suspect_deaths;

  auto slot_files = [&](std::size_t k) {
    return std::vector<std::string>{
        worker_store_path(options.out, k, slots),
        worker_lease_path(options.out, k, slots),
        worker_heartbeat_path(options.out, k, slots)};
  };
  if (!options.resume) {
    // A fresh run must not inherit stale slot state from an older run of
    // the same layout (workers append to their stores by design — and so
    // do their trace files, which survive SIGKILL the same way).
    for (std::size_t k = 0; k < slots; ++k) {
      for (const auto& f : slot_files(k)) util::remove_file(f);
      if (!options.trace_path.empty())
        util::remove_file(obs::worker_trace_path(options.trace_path, k, slots));
    }
  }

  LeaseTable table(n, slots);
  for (std::size_t k = 0; k < slots; ++k)
    write_lease_file(worker_lease_path(options.out, k, slots),
                     table.lease(k));

  auto make_argv = [&](std::size_t k) {
    std::vector<std::string> argv;
    argv.push_back(options.exec_path);
    argv.insert(argv.end(), options.worker_args.begin(),
                options.worker_args.end());
    argv.push_back("--worker-slot");
    argv.push_back(strfmt("%zu/%zu", k, slots));
    if (options.resume) argv.push_back("--resume");
    return argv;
  };

  std::vector<SlotProc> procs(slots);
  // Adaptive mode starts effectively disarmed (one-year timeout stands in
  // for AdaptiveTimeout's "infinite until the first sample") and re-tunes
  // the monitor online from observed inter-heartbeat intervals.
  AdaptiveTimeout adaptive(options.adaptive_config);
  const bool stall_detection =
      options.adaptive_heartbeat || options.heartbeat_ms > 0;
  HeartbeatMonitor monitor(
      options.adaptive_heartbeat
          ? std::chrono::nanoseconds(std::chrono::hours(24 * 365))
          : std::chrono::nanoseconds(
                std::chrono::milliseconds(options.heartbeat_ms)));

  // `shards_launched` counts slots (leases), not spawns: respawns after a
  // crash and post-steal re-arms are reported through report.workers,
  // steals, and restarts instead, keeping summary()'s worker arithmetic
  // meaningful.
  report.shards_launched = slots;

  auto spawn_slot = [&](std::size_t k) {
    procs[k].pid = spawn_one(make_argv(k));
    procs[k].kill_sent = false;
    procs[k].done = false;
    monitor.start(k, Clock::now());
    obs::instant("shard", "worker.spawn", "slot",
                 static_cast<std::int64_t>(k), "restarts",
                 static_cast<std::int64_t>(procs[k].restarts));
    ORACLE_LOG_INFO(strfmt("worker slot %zu spawned (pid %d, lease [%zu,%zu))",
                           k, static_cast<int>(procs[k].pid),
                           table.lease(k).begin, table.lease(k).end));
  };

  // The victim's committed frontier: one past the highest lease position
  // whose record is in the victim's store (or the canonical store).
  // Workers commit in ascending index order, so everything beyond is
  // unclaimed tail — up to the in-flight window, which steal races
  // tolerate by design.
  auto committed_frontier = [&](std::size_t victim) {
    const Lease& lease = table.lease(victim);
    const auto done =
        load_completed_hashes(worker_store_path(options.out, victim, slots));
    std::size_t frontier = lease.begin;
    for (std::size_t p = lease.begin; p < lease.end; ++p) {
      const std::uint64_t h = queue.job(p).content_hash;
      if (done.contains(h) || canonical_done.contains(h)) frontier = p + 1;
    }
    return frontier;
  };

  const std::size_t min_steal = std::max<std::size_t>(options.min_steal_jobs, 1);

  // An idle (drained) slot steals the biggest unclaimed tail among live
  // leases: victim keeps the head half (including its in-flight window),
  // the thief takes the tail half. Returns false when no live lease has a
  // tail worth a process spawn.
  auto try_steal = [&](std::size_t thief) {
    std::size_t best_victim = slots, best_split = 0, best_take = 0;
    for (std::size_t v = 0; v < slots; ++v) {
      if (v == thief || procs[v].pid < 0 || table.drained(v)) continue;
      const Lease& lease = table.lease(v);
      const std::size_t frontier = committed_frontier(v);
      if (lease.end - frontier < min_steal + 1) continue;  // head must stay
      const std::size_t split = frontier + (lease.end - frontier + 1) / 2;
      const std::size_t take = lease.end - split;
      if (take >= min_steal && take > best_take) {
        best_victim = v;
        best_split = split;
        best_take = take;
      }
    }
    // ORACLE_STEAL_DEBUG predates the leveled logger; it still forces the
    // dump so existing test invocations keep working.
    if (std::getenv("ORACLE_STEAL_DEBUG") ||
        log::enabled(log::Level::Debug)) {
      std::string line = strfmt("try_steal(thief=%zu): ", thief);
      for (std::size_t v = 0; v < slots; ++v)
        line += strfmt("slot%zu[%zu,%zu)%s%s f=%zu ", v,
                       table.lease(v).begin, table.lease(v).end,
                       table.drained(v) ? "D" : "",
                       procs[v].pid >= 0 ? "L" : "",
                       (procs[v].pid >= 0 && !table.drained(v))
                           ? committed_frontier(v)
                           : 0);
      line += strfmt("-> victim=%lld split=%zu take=%zu",
                     best_victim == slots ? -1ll
                                          : static_cast<long long>(best_victim),
                     best_split, best_take);
      log::write(log::Level::Debug, line);
    }
    if (best_victim == slots) return false;
    if (!table.steal(best_victim, thief, best_split)) return false;
    // Publish the shrink before arming the thief: the overlap window in
    // which both workers could run a stolen job is then at most the
    // victim's current in-flight jobs (harmless: duplicates merge away).
    write_lease_file(worker_lease_path(options.out, best_victim, slots),
                     table.lease(best_victim));
    write_lease_file(worker_lease_path(options.out, thief, slots),
                     table.lease(thief));
    ++report.steals;
    // The steal renders as a flow arrow: source at the victim's shrink,
    // sink at the thief's respawn over the stolen tail.
    const std::uint64_t flow_id = obs::Tracer::next_flow_id();
    obs::flow('s', flow_id, "shard", "steal", "victim",
              static_cast<std::int64_t>(best_victim), "split",
              static_cast<std::int64_t>(best_split));
    obs::instant("shard", "lease.rewrite", "slot",
                 static_cast<std::int64_t>(best_victim), "end",
                 static_cast<std::int64_t>(best_split));
    ORACLE_LOG_INFO(strfmt(
        "slot %zu stole [%zu,%zu) from slot %zu", thief, best_split,
        table.lease(thief).end, best_victim));
    spawn_slot(thief);
    obs::flow('f', flow_id, "shard", "steal", "thief",
              static_cast<std::int64_t>(thief), "take",
              static_cast<std::int64_t>(best_take));
    return true;
  };

  auto kill_all_live = [&] {
    for (auto& proc : procs) {
      if (proc.pid <= 0) continue;
      ::kill(proc.pid, SIGKILL);
      int status = 0;
      ::waitpid(proc.pid, &status, 0);
      proc.pid = -1;
    }
  };

  const auto run_start = Clock::now();
  auto last_status = run_start;

  // One consistent snapshot of supervisor state, atomically rewritten so a
  // dashboard polling the file never sees a torn read. jobs_done counts
  // from the durable frontiers: retired/drained ranges are complete,
  // live leases are complete up to their store frontier.
  auto write_status = [&](const std::string& phase) {
    if (options.status_path.empty()) return;
    const auto now = Clock::now();
    obs::StatusSnapshot st;
    st.phase = phase;
    st.jobs_total = n;
    std::size_t remaining = 0;
    for (std::size_t k = 0; k < slots; ++k) {
      obs::WorkerStatus w;
      w.slot = k;
      w.live = procs[k].pid >= 0;
      const Lease& lease = table.lease(k);
      w.lease_begin = lease.begin;
      w.lease_end = lease.end;
      w.frontier = table.drained(k) ? lease.end : committed_frontier(k);
      w.restarts = procs[k].restarts;
      w.heartbeat_age_s = monitor.age_seconds(k, now);
      if (!table.drained(k)) remaining += lease.end - w.frontier;
      st.workers.push_back(w);
    }
    remaining = std::min(remaining, n);
    st.jobs_done = n - remaining;
    st.elapsed_seconds =
        std::chrono::duration<double>(now - run_start).count();
    st.jobs_per_second =
        st.elapsed_seconds > 0
            ? static_cast<double>(st.jobs_done) / st.elapsed_seconds
            : 0.0;
    st.eta_seconds = st.jobs_per_second > 0
                         ? static_cast<double>(remaining) / st.jobs_per_second
                         : -1.0;
    st.steals = report.steals;
    st.restarts = report.restarts;
    st.quarantined = prior_quarantined + report.quarantined;
    obs::write_status_file(options.status_path, st);
  };

  bool failed = false;
  try {
    for (std::size_t k = 0; k < slots; ++k) spawn_slot(k);
    write_status("running");

    while (true) {
      // Reap every exited worker without blocking the poll loop.
      for (std::size_t k = 0; k < slots && !failed; ++k) {
        SlotProc& proc = procs[k];
        if (proc.pid < 0) continue;
        int status = 0;
        const pid_t r = ::waitpid(proc.pid, &status, WNOHANG);
        if (r == 0) continue;  // still running

        monitor.stop(k);
        proc.pid = -1;
        WorkerExit we;
        we.shard = k;
        if (r < 0) {
          we.exit_code = 126;  // lost track of the child: treat as failed
        } else if (WIFEXITED(status)) {
          we.exit_code = WEXITSTATUS(status);
        } else if (WIFSIGNALED(status)) {
          we.term_signal = WTERMSIG(status);
        } else {
          we.exit_code = 126;
        }
        report.workers.push_back(we);
        obs::instant("shard", we.ok() ? "worker.drained" : "worker.died",
                     "slot", static_cast<std::int64_t>(k), "code",
                     we.term_signal != 0
                         ? static_cast<std::int64_t>(-we.term_signal)
                         : static_cast<std::int64_t>(we.exit_code));

        if (we.ok()) {
          // Lease drained; go steal the biggest live tail or retire.
          ORACLE_LOG_INFO(strfmt("worker slot %zu drained its lease", k));
          table.mark_drained(k);
          if (!try_steal(k)) proc.done = true;
          continue;
        }

        // The prime suspect for the death: the job at the committed
        // frontier — the first one the respawn would retry. Dying
        // max_restarts times (but never fewer than twice — one death is
        // coincidence, not conviction) on the same job convicts the job,
        // not the slot: it is quarantined (durably recorded + skipped
        // everywhere) and the slot's restart budget is restored.
        bool quarantined_now = false;
        if (!table.drained(k) && options.max_restarts > 0) {
          const Lease& lease = table.lease(k);
          const std::size_t frontier = committed_frontier(k);
          if (frontier < lease.end) {
            const std::uint64_t h = queue.job(frontier).content_hash;
            const std::size_t convict =
                std::max<std::size_t>(2, options.max_restarts);
            if (++suspect_deaths[h] >= convict) {
              append_quarantine_entry(qpath, {h, frontier});
              canonical_done.insert(h);  // advances every frontier past it
              ++report.quarantined;
              quarantined_now = true;
              ORACLE_LOG_WARN(strfmt(
                  "job %zu (hash %016llx) killed its worker %zu time(s); "
                  "quarantined (re-run with --resume --retry-quarantined "
                  "to retry it)",
                  frontier, static_cast<unsigned long long>(h),
                  options.max_restarts));
              obs::instant("shard", "job.quarantined", "index",
                           static_cast<std::int64_t>(frontier), "slot",
                           static_cast<std::int64_t>(k));
            }
          }
        }

        if (quarantined_now) {
          // The poison job is out of the lease now; give the slot a clean
          // budget for whatever legitimately remains.
          proc.restarts = 0;
          ++report.restarts;
          spawn_slot(k);
        } else if (proc.restarts < options.max_restarts) {
          // Crash (or heartbeat SIGKILL): respawn over the same lease —
          // the slot store keeps a durable prefix, so the
          // respawned worker skips straight to the first missing job.
          ORACLE_LOG_WARN(strfmt(
              "worker slot %zu died (%s %d); respawning (%zu/%zu)", k,
              we.term_signal != 0 ? "signal" : "exit code",
              we.term_signal != 0 ? we.term_signal : we.exit_code,
              proc.restarts + 1, options.max_restarts));
          ++proc.restarts;
          ++report.restarts;
          spawn_slot(k);
        } else {
          ORACLE_LOG_ERROR(strfmt(
              "worker slot %zu exhausted its restart budget (%zu); "
              "aborting (state kept for --resume)",
              k, options.max_restarts));
          failed = true;  // budget exhausted: abort, keep state for resume
        }
      }
      if (failed) break;

      const bool any_live = std::any_of(
          procs.begin(), procs.end(),
          [](const SlotProc& p) { return p.pid >= 0; });
      if (!any_live) break;

      if (stall_detection) {
        const auto now = Clock::now();
        for (std::size_t k = 0; k < slots; ++k) {
          if (procs[k].pid < 0 || procs[k].kill_sent) continue;
          const auto mtime =
              util::file_mtime_ns(worker_heartbeat_path(options.out, k, slots));
          const auto interval = monitor.observe(k, mtime.value_or(-1), now);
          if (options.adaptive_heartbeat) {
            if (interval) adaptive.record(*interval);
            const double t = adaptive.timeout_seconds();
            if (std::isfinite(t))
              monitor.set_timeout(std::chrono::nanoseconds(
                  static_cast<std::int64_t>(t * 1e9)));
          }
          if (monitor.stale(k, now)) {
            // Wedged worker: no commit progress for a full timeout.
            // SIGKILL and let the reap path above restart it.
            ORACLE_LOG_WARN(strfmt(
                "worker slot %zu heartbeat stale (%.1fs); sending SIGKILL",
                k, monitor.age_seconds(k, now)));
            obs::instant("shard", "worker.stale_kill", "slot",
                         static_cast<std::int64_t>(k));
            ::kill(procs[k].pid, SIGKILL);
            procs[k].kill_sent = true;
          }
        }
      }

      if (!options.status_path.empty()) {
        const auto now = Clock::now();
        if (now - last_status >=
            std::chrono::milliseconds(
                std::max<std::uint32_t>(options.status_interval_ms, 1))) {
          last_status = now;
          write_status("running");
        }
      }

      std::this_thread::sleep_for(
          std::chrono::milliseconds(std::max<std::uint32_t>(options.poll_ms, 1)));
    }
  } catch (...) {
    kill_all_live();
    throw;
  }

  if (failed) {
    // Leave every slot store in place (merge skipped) so --resume can
    // converge later; live workers must die now or they would race the
    // resume's respawns on the same stores.
    kill_all_live();
    write_status("failed");
    return report;
  }

  ORACLE_ASSERT(table.all_drained());
  write_status("merging");
  {
    obs::Span merge_span("shard", "merge");
    ShardMerger merger;
    if (options.resume) merger.add_store(options.out);
    for (std::size_t k = 0; k < slots; ++k)
      merger.add_store(worker_store_path(options.out, k, slots));
    report.merge = merger.merge_to(options.out);
    report.merged = true;
  }
  ORACLE_LOG_INFO(strfmt(
      "merged %zu record(s) into %s (%zu duplicate(s) dropped)",
      report.merge.records, options.out.c_str(),
      report.merge.duplicates_dropped));
  write_status("done");

  if (!options.keep_shard_stores) {
    for (std::size_t k = 0; k < slots; ++k)
      for (const auto& f : slot_files(k)) util::remove_file(f);
  }
  return report;
}

// ------------------------------------------- lease-server supervisor --
//
// With --lease-server the parent sheds most of its supervisor duties:
// leases, steals, fencing, and stall expiry live in the (possibly
// remote) lease service. What remains here is process custody — spawn
// one lease-client worker per slot, reap and respawn crashed ones,
// SIGKILL wedged ones as a local belt-and-braces (the server would
// expire them anyway, but only this parent can free the wedged PID) —
// plus the final completeness check and merge.

ShardRunReport run_lease_server_processes(
    const std::vector<core::ExperimentConfig>& configs,
    const ShardRunOptions& options) {
  using Clock = std::chrono::steady_clock;

  JobQueue queue(configs);
  if (options.master_seed != 0) queue.derive_seeds(options.master_seed);
  const std::size_t n = queue.size();

  ShardRunReport report;
  report.planned_jobs = n;
  const std::size_t slots =
      std::max<std::size_t>(1, std::min(options.workers, n));
  report.shards_launched = slots;

  auto slot_files = [&](std::size_t k) {
    return std::vector<std::string>{
        worker_store_path(options.out, k, slots),
        worker_heartbeat_path(options.out, k, slots)};
  };
  if (!options.resume) {
    for (std::size_t k = 0; k < slots; ++k) {
      for (const auto& f : slot_files(k)) util::remove_file(f);
      if (!options.trace_path.empty())
        util::remove_file(obs::worker_trace_path(options.trace_path, k, slots));
    }
  }

  auto make_argv = [&](std::size_t k) {
    std::vector<std::string> argv;
    argv.push_back(options.exec_path);
    argv.insert(argv.end(), options.worker_args.begin(),
                options.worker_args.end());
    argv.push_back("--worker-slot");
    argv.push_back(strfmt("%zu/%zu", k, slots));
    argv.push_back("--lease-server");
    argv.push_back(options.lease_server);
    if (options.resume) argv.push_back("--resume");
    return argv;
  };

  std::vector<SlotProc> procs(slots);
  AdaptiveTimeout adaptive(options.adaptive_config);
  const bool stall_detection =
      options.adaptive_heartbeat || options.heartbeat_ms > 0;
  HeartbeatMonitor monitor(
      options.adaptive_heartbeat
          ? std::chrono::nanoseconds(std::chrono::hours(24 * 365))
          : std::chrono::nanoseconds(
                std::chrono::milliseconds(options.heartbeat_ms)));

  auto spawn_slot = [&](std::size_t k) {
    procs[k].pid = spawn_one(make_argv(k));
    procs[k].kill_sent = false;
    procs[k].done = false;
    monitor.start(k, Clock::now());
    obs::instant("shard", "worker.spawn", "slot",
                 static_cast<std::int64_t>(k), "restarts",
                 static_cast<std::int64_t>(procs[k].restarts));
    ORACLE_LOG_INFO(strfmt(
        "worker slot %zu spawned (pid %d, leases from %s)", k,
        static_cast<int>(procs[k].pid), options.lease_server.c_str()));
  };

  auto kill_all_live = [&] {
    for (auto& proc : procs) {
      if (proc.pid <= 0) continue;
      ::kill(proc.pid, SIGKILL);
      int status = 0;
      ::waitpid(proc.pid, &status, 0);
      proc.pid = -1;
    }
  };

  const auto run_start = Clock::now();
  auto last_status = run_start;
  // Job-level progress lives in the server's status file; this one covers
  // what only the parent knows — process custody per slot.
  auto write_status = [&](const std::string& phase) {
    if (options.status_path.empty()) return;
    const auto now = Clock::now();
    obs::StatusSnapshot st;
    st.phase = phase;
    st.jobs_total = n;
    for (std::size_t k = 0; k < slots; ++k) {
      obs::WorkerStatus w;
      w.slot = k;
      w.live = procs[k].pid >= 0;
      w.restarts = procs[k].restarts;
      w.heartbeat_age_s = monitor.age_seconds(k, now);
      st.workers.push_back(w);
    }
    st.elapsed_seconds =
        std::chrono::duration<double>(now - run_start).count();
    st.restarts = report.restarts;
    obs::write_status_file(options.status_path, st);
  };

  bool failed = false;
  try {
    for (std::size_t k = 0; k < slots; ++k) spawn_slot(k);
    write_status("running");

    while (true) {
      for (std::size_t k = 0; k < slots && !failed; ++k) {
        SlotProc& proc = procs[k];
        if (proc.pid < 0) continue;
        int status = 0;
        const pid_t r = ::waitpid(proc.pid, &status, WNOHANG);
        if (r == 0) continue;

        monitor.stop(k);
        proc.pid = -1;
        WorkerExit we;
        we.shard = k;
        if (r < 0) {
          we.exit_code = 126;
        } else if (WIFEXITED(status)) {
          we.exit_code = WEXITSTATUS(status);
        } else if (WIFSIGNALED(status)) {
          we.term_signal = WTERMSIG(status);
        } else {
          we.exit_code = 126;
        }
        report.workers.push_back(we);
        obs::instant("shard", we.ok() ? "worker.drained" : "worker.died",
                     "slot", static_cast<std::int64_t>(k), "code",
                     we.term_signal != 0
                         ? static_cast<std::int64_t>(-we.term_signal)
                         : static_cast<std::int64_t>(we.exit_code));

        if (we.ok()) {
          // The server said done; nothing left for this slot to do.
          proc.done = true;
        } else if (we.term_signal == 0 &&
                   we.exit_code == kOrphanedExitCode) {
          // The worker lost the server past its retry budget. Its durable
          // prefix is safe; respawning would only orphan again, so note it
          // and let the completeness check decide whether the rest of the
          // fleet covered the gap.
          ORACLE_LOG_WARN(strfmt(
              "worker slot %zu orphaned (lease server unreachable); "
              "not respawning",
              k));
          ++report.orphaned;
          proc.done = true;
        } else if (proc.restarts < options.max_restarts) {
          ORACLE_LOG_WARN(strfmt(
              "worker slot %zu died (%s %d); respawning (%zu/%zu)", k,
              we.term_signal != 0 ? "signal" : "exit code",
              we.term_signal != 0 ? we.term_signal : we.exit_code,
              proc.restarts + 1, options.max_restarts));
          ++proc.restarts;
          ++report.restarts;
          spawn_slot(k);
        } else {
          ORACLE_LOG_ERROR(strfmt(
              "worker slot %zu exhausted its restart budget (%zu); "
              "aborting (state kept for --resume)",
              k, options.max_restarts));
          failed = true;
        }
      }
      if (failed) break;

      const bool any_live = std::any_of(
          procs.begin(), procs.end(),
          [](const SlotProc& p) { return p.pid >= 0; });
      if (!any_live) break;

      if (stall_detection) {
        const auto now = Clock::now();
        for (std::size_t k = 0; k < slots; ++k) {
          if (procs[k].pid < 0 || procs[k].kill_sent) continue;
          const auto mtime =
              util::file_mtime_ns(worker_heartbeat_path(options.out, k, slots));
          const auto interval = monitor.observe(k, mtime.value_or(-1), now);
          if (options.adaptive_heartbeat) {
            if (interval) adaptive.record(*interval);
            const double t = adaptive.timeout_seconds();
            if (std::isfinite(t))
              monitor.set_timeout(std::chrono::nanoseconds(
                  static_cast<std::int64_t>(t * 1e9)));
          }
          if (monitor.stale(k, now)) {
            ORACLE_LOG_WARN(strfmt(
                "worker slot %zu heartbeat stale (%.1fs); sending SIGKILL",
                k, monitor.age_seconds(k, now)));
            obs::instant("shard", "worker.stale_kill", "slot",
                         static_cast<std::int64_t>(k));
            ::kill(procs[k].pid, SIGKILL);
            procs[k].kill_sent = true;
          }
        }
      }

      if (!options.status_path.empty()) {
        const auto now = Clock::now();
        if (now - last_status >=
            std::chrono::milliseconds(
                std::max<std::uint32_t>(options.status_interval_ms, 1))) {
          last_status = now;
          write_status("running");
        }
      }

      std::this_thread::sleep_for(
          std::chrono::milliseconds(std::max<std::uint32_t>(options.poll_ms, 1)));
    }
  } catch (...) {
    kill_all_live();
    throw;
  }

  if (failed) {
    kill_all_live();
    write_status("failed");
    return report;
  }

  // Completeness gate: the server's `done` plus orphan exits are not proof
  // that every record landed on *this* host's disks. Merge only when the
  // union of the canonical + slot stores covers the whole sweep; anything
  // short of that keeps the state for --resume.
  {
    std::unordered_set<std::uint64_t> have;
    if (options.resume) {
      const auto canon = load_completed_hashes(options.out);
      have.insert(canon.begin(), canon.end());
    }
    for (std::size_t k = 0; k < slots; ++k) {
      const auto hashes =
          load_completed_hashes(worker_store_path(options.out, k, slots));
      have.insert(hashes.begin(), hashes.end());
    }
    std::size_t missing = 0;
    for (std::size_t p = 0; p < n; ++p)
      if (!have.contains(queue.job(p).content_hash)) ++missing;
    if (missing > 0) {
      ORACLE_LOG_ERROR(strfmt(
          "lease-server run incomplete: %zu job(s) missing from local "
          "stores (orphaned workers? wrong server?); merge skipped — "
          "re-run with --resume",
          missing));
      write_status("failed");
      return report;
    }
  }

  write_status("merging");
  {
    obs::Span merge_span("shard", "merge");
    ShardMerger merger;
    if (options.resume) merger.add_store(options.out);
    for (std::size_t k = 0; k < slots; ++k)
      merger.add_store(worker_store_path(options.out, k, slots));
    report.merge = merger.merge_to(options.out);
    report.merged = true;
  }
  ORACLE_LOG_INFO(strfmt(
      "merged %zu record(s) into %s (%zu duplicate(s) dropped)",
      report.merge.records, options.out.c_str(),
      report.merge.duplicates_dropped));
  write_status("done");

  if (!options.keep_shard_stores) {
    for (std::size_t k = 0; k < slots; ++k)
      for (const auto& f : slot_files(k)) util::remove_file(f);
  }
  return report;
}

}  // namespace

#endif

// ------------------------------------------------- run_sharded_processes --

bool ShardRunReport::ok() const noexcept {
  // The merge is the completion criterion. Static runs only merge when
  // every worker exited cleanly; steal-mode runs may carry failed exits
  // from workers the supervisor killed and successfully restarted — the
  // run still converged.
  return merged;
}

std::string ShardRunReport::summary() const {
  std::size_t failed = 0;
  for (const auto& w : workers)
    if (!w.ok()) ++failed;
  std::string s = strfmt(
      "%zu jobs over %zu worker(s): %zu launched, %zu shard(s) already "
      "complete",
      planned_jobs, shards_launched + shards_skipped, shards_launched,
      shards_skipped);
  if (steals > 0) s += strfmt(", %zu lease(s) stolen", steals);
  if (restarts > 0) s += strfmt(", %zu worker(s) auto-restarted", restarts);
  if (quarantined > 0)
    s += strfmt(", %zu poison job(s) quarantined", quarantined);
  if (orphaned > 0)
    s += strfmt(", %zu worker(s) orphaned by the lease server", orphaned);
  if (failed > 0) s += strfmt(", %zu worker exit(s) failed", failed);
  if (merged)
    s += strfmt("; merged %zu record(s) (%zu duplicate(s) dropped)",
                merge.records, merge.duplicates_dropped);
  else
    s += "; merge skipped (re-run with --resume to finish)";
  return s;
}

ShardRunReport run_sharded_processes(
    const std::vector<core::ExperimentConfig>& configs,
    const ShardRunOptions& options) {
  ORACLE_REQUIRE(!options.out.empty(),
                 "sharded runs need a canonical --out store");
  ORACLE_REQUIRE(options.workers >= 1, "--workers must be >= 1");
  ORACLE_REQUIRE(!options.exec_path.empty(),
                 "sharded runs need the worker executable path");
  ORACLE_REQUIRE(!configs.empty(), "sharded run over an empty sweep");

  if (!options.lease_server.empty())
    return run_lease_server_processes(configs, options);
  if (options.steal) return run_stealing_processes(configs, options);

  JobQueue queue(configs);
  if (options.master_seed != 0) queue.derive_seeds(options.master_seed);
  const ShardPlan plan(queue, options.workers);

  ShardRunReport report;
  report.planned_jobs = plan.total_jobs();

  // Which shards need a worker? Fresh runs: every shard with jobs (their
  // workers truncate any stale per-shard state). Resume: only shards with
  // jobs not already durable in their own store or in the
  // previously merged canonical store.
  std::vector<std::size_t> to_run;
  if (options.resume) {
    to_run = plan.incomplete_shards(options.out,
                                    load_completed_hashes(options.out));
  } else {
    for (std::size_t i = 0; i < plan.count(); ++i)
      if (!plan.shard_hashes(i).empty()) to_run.push_back(i);
  }
  std::size_t nonempty = 0;
  for (std::size_t i = 0; i < plan.count(); ++i)
    if (!plan.shard_hashes(i).empty()) ++nonempty;
  report.shards_launched = to_run.size();
  report.shards_skipped = nonempty - to_run.size();

  // A fresh run must not inherit stale per-shard state from an older,
  // different sweep: clear every shard store of this layout up front
  // (workers would truncate their own anyway; shards that get no worker
  // this time must not leak stale records into the merge).
  if (!options.resume) {
    for (std::size_t i = 0; i < plan.count(); ++i)
      util::remove_file(shard_store_path(options.out, i, plan.count()));
  }

  if (!to_run.empty()) {
    std::vector<std::vector<std::string>> argvs;
    argvs.reserve(to_run.size());
    for (const std::size_t shard : to_run) {
      std::vector<std::string> argv;
      argv.push_back(options.exec_path);
      argv.insert(argv.end(), options.worker_args.begin(),
                  options.worker_args.end());
      argv.push_back("--shard");
      argv.push_back(ShardSpec{shard, plan.count()}.to_string());
      if (options.resume) argv.push_back("--resume");
      argvs.push_back(std::move(argv));
    }
    report.workers = spawn_and_wait(argvs, to_run);
  }

  for (const auto& w : report.workers)
    if (!w.ok()) return report;  // merge skipped; every store stays put

  // All workers finished cleanly: fold the per-shard stores (plus, when
  // resuming, the previously merged canonical store) into the canonical
  // store. A fresh run replaces the canonical store outright, mirroring
  // the serial engine's truncate-on-fresh-run semantics.
  ShardMerger merger;
  if (options.resume) merger.add_store(options.out);
  for (std::size_t i = 0; i < plan.count(); ++i)
    merger.add_store(shard_store_path(options.out, i, plan.count()));
  report.merge = merger.merge_to(options.out);
  report.merged = true;

  if (!options.keep_shard_stores) {
    for (std::size_t i = 0; i < plan.count(); ++i)
      util::remove_file(shard_store_path(options.out, i, plan.count()));
  }
  return report;
}

}  // namespace oracle::exp
