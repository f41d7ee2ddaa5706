#include "exp/lease_service.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <fstream>
#include <limits>
#include <vector>

#include <fcntl.h>
#include <unistd.h>

#include "exp/lease_protocol.hpp"
#include "exp/result_sink.hpp"
#include "obs/status.hpp"
#include "obs/trace.hpp"
#include "util/error.hpp"
#include "util/log.hpp"
#include "util/posix_io.hpp"
#include "util/string_util.hpp"
#include "util/verb_codec.hpp"

namespace oracle::exp {

namespace {

/// One lease-state transition, and one line of the journal. Reassign and
/// steal move work from `slot` to `thief`; `at` is a frontier or a split
/// point. `init` names the sweep: start() checks it, apply() never sees it.
struct LeaseRecord {
  enum class Op {
    kInit,
    kGrant,
    kFrontier,
    kDrained,
    kExpire,
    kReassign,
    kSteal,
    kDone
  };
  Op op = Op::kDone;
  std::uint64_t slot = 0;
  std::uint64_t thief = 0;
  std::uint64_t at = 0;
  std::uint64_t epoch = 0;
  std::uint64_t jobs = 0;
  std::uint64_t slots = 0;
  std::uint64_t seed = 0;
};

using Op = LeaseRecord::Op;
using J = LeaseRecord;

constexpr util::Verb<J> kJournalVerbs[] = {
    {"init", {&J::jobs, &J::slots, &J::seed}},
    {"grant", {&J::slot, &J::epoch}},
    {"frontier", {&J::slot, &J::at}},
    {"drained", {&J::slot}},
    {"expire", {&J::slot, &J::epoch}},
    {"reassign", {&J::slot, &J::thief, &J::at, &J::epoch}},
    {"steal", {&J::slot, &J::thief, &J::at, &J::epoch}},
    {"done"},
};

constexpr util::Dialect<J, Op> kJournal{"J1", nullptr, &J::op,
                                        kJournalVerbs};

}  // namespace

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

// -------------------------------------------------------- AdaptiveTimeout --

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
  return std::clamp(raw, config_.floor_s, kCapSeconds);
}

struct LeaseService::Impl {
  using Clock = std::chrono::steady_clock;

  // Lease frames are tiny: a peer that cannot finish one within 250 ms of
  // its last byte, or take a reply within 2 s, is evicted. It reconnects
  // and retries; the protocol is retry-safe by construction.
  explicit Impl(const LeaseServiceOptions& opt)
      : table(opt.jobs, opt.slots),
        timeout(opt.timeout),
        server({.read_timeout = std::chrono::milliseconds(250),
                .write_timeout = std::chrono::seconds(2)}) {
    slots.resize(std::max<std::size_t>(opt.slots, 1));
    for (std::size_t k = 0; k < slots.size(); ++k)
      slots[k].frontier = table.lease(k).begin;
  }

  struct SlotState {
    std::uint64_t epoch = 0;     ///< current fencing epoch (0 = never granted)
    std::size_t frontier = 0;    ///< highest committed frontier reported
    bool expired = false;        ///< adaptive timeout fired; epoch is fenced
    std::size_t grants = 0;      ///< epochs issued to this slot
    std::uint64_t last_retries = 0;  ///< client-reported retry counter
    Clock::time_point last_life{};   ///< last message seen from this slot
  };

  /// Applies one transition to the table and the per-slot state. Live
  /// requests journal the record first; replay feeds each journaled record
  /// back through here, so both reach the same state. False when the
  /// record names a slot outside the table (a damaged journal line).
  bool apply(const LeaseRecord& r) {
    const bool moves = r.op == Op::kReassign || r.op == Op::kSteal;
    if (r.op == Op::kInit || r.slot >= slots.size() ||
        (moves && r.thief >= slots.size()))
      return false;
    SlotState& s = slots[r.slot];
    std::optional<Lease> moved;
    switch (r.op) {
      case Op::kGrant:
        s.epoch = r.epoch;
        s.expired = false;
        ++s.grants;
        break;
      case Op::kExpire:
        s.epoch = r.epoch;
        s.expired = true;
        break;
      case Op::kFrontier:
        s.frontier = std::max<std::size_t>(s.frontier, r.at);
        break;
      case Op::kDrained: table.mark_drained(r.slot); break;
      case Op::kReassign:
        moved = table.reassign(r.slot, r.thief, r.at);
        s.expired = false;
        break;
      case Op::kSteal: moved = table.steal(r.slot, r.thief, r.at); break;
      case Op::kDone: completed = true; break;
      case Op::kInit: break;
    }
    if (moved) {  // the thief runs the moved range under a fresh epoch
      SlotState& t = slots[r.thief];
      t.epoch = r.epoch;
      t.expired = false;
      t.frontier = moved->begin;
      ++t.grants;
    }
    return true;
  }

  LeaseTable table;
  std::vector<SlotState> slots;
  AdaptiveTimeout timeout;
  util::FrameServer server;
  int journal_fd = -1;
  bool completed = false;

  ~Impl() {
    if (journal_fd >= 0) ::close(journal_fd);
  }
};

LeaseService::LeaseService(LeaseServiceOptions options)
    : impl_(new Impl(options)), options_(std::move(options)) {}

LeaseService::~LeaseService() { delete impl_; }

std::uint16_t LeaseService::port() const { return impl_->server.port(); }

void LeaseService::stop() {
  stop_.store(true, std::memory_order_relaxed);
  impl_->server.wake();
}

namespace {

using Clock = std::chrono::steady_clock;

/// Appends one record to the journal and fsyncs it.
void append_record(int fd, const LeaseRecord& rec) {
  const std::string line = kJournal.encode(rec) + '\n';
  if (!util::write_full(fd, line.data(), line.size()) ||
      !util::fsync_retry(fd))
    throw SimulationError("lease journal write failed");
}

}  // namespace

void LeaseService::start() {
  Impl& im = *impl_;
  ORACLE_REQUIRE(options_.jobs > 0, "lease service over an empty sweep");

  // ---- journal replay --------------------------------------------------
  // The journal is write-ahead: every record below was fsynced before the
  // transition it describes was applied or acknowledged, so replaying the
  // readable prefix reconstructs exactly the state every worker could have
  // observed. A torn final record (server killed mid-append) describes a
  // transition nobody was ever told about — skipping it is correct, and
  // the terminating newline we add below keeps it inert forever.
  if (!options_.journal_path.empty()) {
    std::ifstream in(options_.journal_path);
    std::string line;
    bool saw_init = false;
    while (in && std::getline(in, line)) {
      if (line.empty()) continue;
      const auto rec = kJournal.parse(line);
      if (rec && rec->op == Op::kInit) {
        if (rec->jobs != options_.jobs || rec->slots != im.slots.size() ||
            rec->seed != options_.master_seed)
          throw SimulationError(strfmt(
              "journal '%s' belongs to a different run (%llu jobs / %llu "
              "slots / seed %llu vs %zu/%zu/%llu); remove it to start over",
              options_.journal_path.c_str(),
              static_cast<unsigned long long>(rec->jobs),
              static_cast<unsigned long long>(rec->slots),
              static_cast<unsigned long long>(rec->seed), options_.jobs,
              im.slots.size(),
              static_cast<unsigned long long>(options_.master_seed)));
        saw_init = true;
      } else if (rec && saw_init && im.apply(*rec)) {
        ++stats_.replayed_records;
      } else {
        ++stats_.torn_journal_records;  // torn, unknown or before init
      }
    }
    if (stats_.replayed_records > 0 || saw_init)
      ORACLE_LOG_INFO(strfmt(
          "lease journal replayed: %zu record(s), %zu torn/skipped",
          stats_.replayed_records, stats_.torn_journal_records));

    const bool partial_tail = has_partial_last_line(options_.journal_path);
    im.journal_fd = ::open(options_.journal_path.c_str(),
                           O_WRONLY | O_CREAT | O_APPEND, 0644);
    if (im.journal_fd < 0)
      throw SimulationError("cannot open lease journal '" +
                            options_.journal_path + "' for append");
    if (partial_tail) {
      const char nl = '\n';
      util::write_full(im.journal_fd, &nl, 1);
    }
    if (!saw_init)
      append_record(im.journal_fd, {.op = Op::kInit,
                                    .jobs = options_.jobs,
                                    .slots = im.slots.size(),
                                    .seed = options_.master_seed});
  }

  if (!im.server.listen(options_.listen))
    throw SimulationError("lease service cannot listen on " +
                          options_.listen.str());

  const auto now = Clock::now();
  for (auto& s : im.slots) s.last_life = now;
  ORACLE_LOG_INFO(strfmt("lease service listening on %s:%u (%zu jobs, %zu "
                         "slots, journal %s)",
                         options_.listen.host.c_str(),
                         static_cast<unsigned>(port()), options_.jobs,
                         im.slots.size(),
                         options_.journal_path.empty()
                             ? "none"
                             : options_.journal_path.c_str()));
}

LeaseServiceStats LeaseService::run() {
  Impl& im = *impl_;
  ORACLE_REQUIRE(im.server.port() != 0, "LeaseService::start() not called");

  const std::size_t n = options_.jobs;
  const std::size_t w = im.slots.size();
  const std::size_t min_steal =
      std::max<std::size_t>(options_.min_steal_jobs, 1);

  // Every state change: journal the record durably (write-ahead; without
  // a journal the stores are the record), then apply it.
  auto transition = [&](const LeaseRecord& rec) {
    if (im.journal_fd >= 0) {
      obs::Span span("lease", "journal.fsync");
      append_record(im.journal_fd, rec);
      ++stats_.journal_records;
    }
    im.apply(rec);
  };

  auto remaining_jobs = [&] {
    std::size_t remaining = 0;
    for (std::size_t k = 0; k < w; ++k)
      if (!im.table.drained(k))
        remaining += im.table.lease(k).end -
                     std::min(im.slots[k].frontier, im.table.lease(k).end);
    return std::min(remaining, n);
  };

  // The expiry threshold in seconds: the fixed expiry_ms, else the
  // adaptive timeout (+infinity until the first job-wall sample).
  auto expiry_seconds = [&] {
    return options_.expiry_ms > 0
               ? static_cast<double>(options_.expiry_ms) / 1e3
               : im.timeout.timeout_seconds();
  };

  const auto run_start = Clock::now();
  auto snapshot = [&](Clock::time_point now) {
    obs::StatusSnapshot st;
    st.phase = im.completed ? "done" : "serving";
    st.jobs_total = n;
    st.jobs_done = n - remaining_jobs();
    st.elapsed_seconds = std::chrono::duration<double>(now - run_start).count();
    st.steals = stats_.steals + stats_.reassigns;
    st.fenced = stats_.fenced;
    st.retries = stats_.client_retries;
    st.evicted = im.server.evicted();
    for (std::size_t k = 0; k < w; ++k) {
      const auto& s = im.slots[k];
      obs::WorkerStatus ws;
      ws.slot = k;
      ws.live = !im.table.drained(k) && !s.expired && s.epoch > 0;
      ws.lease_begin = im.table.lease(k).begin;
      ws.lease_end = im.table.lease(k).end;
      ws.frontier = im.table.drained(k) ? im.table.lease(k).end
                                        : std::min(s.frontier,
                                                   im.table.lease(k).end);
      ws.restarts = s.grants > 0 ? s.grants - 1 : 0;
      // Since the slot's last message — for a never-granted slot, since
      // the service started listening.
      ws.heartbeat_age_s =
          std::chrono::duration<double>(now - s.last_life).count();
      st.workers.push_back(ws);
    }
    if (const double t = expiry_seconds(); std::isfinite(t)) st.expiry_s = t;
    return st;
  };

  auto sum_client_retries = [&] {
    std::uint64_t total = 0;
    for (const auto& s : im.slots) total += s.last_retries;
    stats_.client_retries = total;
  };

  auto mark_done_if_drained = [&] {
    if (!im.completed && im.table.all_drained()) {
      transition({.op = Op::kDone});
      ORACLE_LOG_INFO("lease service: sweep complete (all leases drained)");
      obs::instant("lease", "sweep.done");
    }
  };

  auto granted = [](std::uint64_t epoch, std::size_t begin, std::size_t end) {
    LeaseResponse rsp;
    rsp.kind = LeaseResponseKind::kLease;
    rsp.epoch = epoch;
    rsp.begin = begin;
    rsp.end = end;
    return rsp;
  };

  // Hand work to a drained slot: expired leases first (takeover), then the
  // biggest live unclaimed tail (steal), else empty/done.
  auto find_work = [&](std::size_t thief) {
    // 1. Take over an expired lease: its committed head retires, its tail
    //    moves to the thief under a fresh epoch; the expired holder is
    //    permanently fenced.
    for (std::size_t v = 0; v < w; ++v) {
      if (v == thief || !im.slots[v].expired || im.table.drained(v)) continue;
      const std::uint64_t epoch = im.slots[thief].epoch + 1;
      transition({.op = Op::kReassign,
                  .slot = v,
                  .thief = thief,
                  .at = std::min(im.slots[v].frontier, im.table.lease(v).end),
                  .epoch = epoch});
      if (im.table.drained(thief)) {
        // Everything in the expired lease was already committed: it just
        // retired. Keep looking.
        mark_done_if_drained();
        continue;
      }
      const Lease& lease = im.table.lease(thief);
      ++stats_.reassigns;
      obs::instant("lease", "reassign", "victim", static_cast<std::int64_t>(v),
                   "thief", static_cast<std::int64_t>(thief));
      ORACLE_LOG_INFO(strfmt(
          "slot %zu took over expired lease [%zu,%zu) from slot %zu (epoch "
          "%llu)",
          thief, lease.begin, lease.end, v,
          static_cast<unsigned long long>(epoch)));
      return granted(epoch, lease.begin, lease.end);
    }
    // 2. Steal the biggest unclaimed tail among live leases. A slot never
    //    granted has no worker yet: splitting its lease would only race
    //    that worker's start-up (a dead one expires instead). The victim
    //    keeps its in-flight job and at least one more, so a steal never
    //    leaves it a lease it drains at once and turns it into a thief.
    std::size_t best_victim = w, best_split = 0, best_take = 0;
    for (std::size_t v = 0; v < w; ++v) {
      if (v == thief || im.table.drained(v) || im.slots[v].expired ||
          im.slots[v].epoch == 0)
        continue;
      const Lease& lease = im.table.lease(v);
      const std::size_t f = std::min(im.slots[v].frontier, lease.end);
      if (lease.end - f < min_steal + 2) continue;
      const std::size_t split =
          std::max(f + 2, f + (lease.end - f + 1) / 2);
      const std::size_t take = lease.end - split;
      if (take >= min_steal && take > best_take) {
        best_victim = v;
        best_split = split;
        best_take = take;
      }
    }
    if (best_victim < w) {
      const std::uint64_t epoch = im.slots[thief].epoch + 1;
      transition({.op = Op::kSteal,
                  .slot = best_victim,
                  .thief = thief,
                  .at = best_split,
                  .epoch = epoch});
      ORACLE_ASSERT(!im.table.drained(thief));
      const Lease& lease = im.table.lease(thief);
      ++stats_.steals;
      const std::uint64_t flow_id = obs::Tracer::next_flow_id();
      obs::flow('s', flow_id, "lease", "steal", "victim",
                static_cast<std::int64_t>(best_victim), "split",
                static_cast<std::int64_t>(best_split));
      obs::flow('f', flow_id, "lease", "steal", "thief",
                static_cast<std::int64_t>(thief), "take",
                static_cast<std::int64_t>(best_take));
      ORACLE_LOG_INFO(strfmt("slot %zu stole [%zu,%zu) from slot %zu", thief,
                             lease.begin, lease.end, best_victim));
      // The victim keeps committing into its shrunk head; it learns the
      // new end from its next commit response.
      return granted(epoch, lease.begin, lease.end);
    }
    // 3. Nothing to hand out: done if everything drained, else "not yet".
    mark_done_if_drained();
    LeaseResponse rsp;
    rsp.kind =
        im.completed ? LeaseResponseKind::kDone : LeaseResponseKind::kEmpty;
    return rsp;
  };

  // Expiry: an undrained slot silent for longer than the expiry
  // threshold is presumed wedged/dead. Its epoch bumps — the journal
  // record *is* the fencing event — and the next idle worker takes the
  // uncommitted tail over. Returns when the next live slot falls due
  // (re-checked at least once a minute).
  auto expire_silent_slots = [&](Clock::time_point now) {
    auto next = Clock::time_point::max();
    const double timeout_s = expiry_seconds();
    for (std::size_t k = 0; k < w; ++k) {
      auto& slot = im.slots[k];
      if (im.table.drained(k) || slot.expired) continue;
      const double age =
          std::chrono::duration<double>(now - slot.last_life).count();
      if (age <= timeout_s) {
        next = std::min(
            next, now + std::chrono::duration_cast<Clock::duration>(
                            std::chrono::duration<double>(
                                std::min(timeout_s - age, 60.0))));
        continue;
      }
      transition({.op = Op::kExpire, .slot = k, .epoch = slot.epoch + 1});
      ++stats_.expirations;
      obs::instant("lease", "expire", "slot", static_cast<std::int64_t>(k),
                   "age_ms", static_cast<std::int64_t>(age * 1e3));
      ORACLE_LOG_WARN(strfmt(
          "slot %zu expired after %.1fs silence (timeout %.1fs); lease "
          "[%zu,%zu) f=%zu up for takeover",
          k, age, timeout_s, im.table.lease(k).begin, im.table.lease(k).end,
          slot.frontier));
    }
    return next;
  };

  auto handle = [&](const LeaseRequest& req) {
    LeaseResponse rsp;
    rsp.seq = req.seq;
    ++stats_.requests;
    obs::Span span("lease", "request", "op",
                   static_cast<std::int64_t>(req.op), "slot",
                   static_cast<std::int64_t>(req.slot));

    if (req.op == LeaseOp::kStatus) {
      // Expire before answering, on the same clock reading: a reply that
      // shows a slot past the threshold always follows that slot's
      // `expire`, so a supervisor's SIGKILL never precedes it.
      const auto now = Clock::now();
      expire_silent_slots(now);
      rsp.kind = LeaseResponseKind::kStatus;
      rsp.text = snapshot(now).to_json();
      return rsp;
    }
    if (req.slot >= w) {
      rsp.kind = LeaseResponseKind::kError;
      rsp.text = strfmt("slot %zu out of range (%zu slots)", req.slot, w);
      ++stats_.bad_requests;
      return rsp;
    }
    auto& slot = im.slots[req.slot];
    slot.last_life = Clock::now();

    switch (req.op) {
      case LeaseOp::kAcquire: {
        if (req.slot_count != w || req.jobs != n) {
          rsp.kind = LeaseResponseKind::kError;
          rsp.text = strfmt(
              "sweep mismatch: worker says %zu slots / %zu jobs, server has "
              "%zu / %zu",
              req.slot_count, req.jobs, w, n);
          ++stats_.bad_requests;
          return rsp;
        }
        if (im.completed) {
          rsp.kind = LeaseResponseKind::kDone;
          return rsp;
        }
        if (im.table.drained(req.slot)) return find_work(req.slot);
        // Grant (or re-grant after a crash/expiry) under a fresh epoch:
        // whatever process held this slot before is fenced from here on.
        transition(
            {.op = Op::kGrant, .slot = req.slot, .epoch = slot.epoch + 1});
        ++stats_.grants;
        obs::instant("lease", "grant", "slot",
                     static_cast<std::int64_t>(req.slot), "epoch",
                     static_cast<std::int64_t>(slot.epoch));
        return granted(slot.epoch, im.table.lease(req.slot).begin,
                       im.table.lease(req.slot).end);
      }
      case LeaseOp::kCommit: {
        if (im.completed) {
          rsp.kind = LeaseResponseKind::kDone;
          return rsp;
        }
        if (req.epoch != slot.epoch || slot.expired) {
          // The fencing check: a reaped-then-resurrected worker (or one
          // whose lease was expired and reassigned) may not advance the
          // frontier of a range it no longer owns.
          ++stats_.fenced;
          obs::counter("lease", "fenced", "total",
                       static_cast<std::int64_t>(stats_.fenced));
          ORACLE_LOG_WARN(strfmt(
              "slot %zu: stale epoch %llu (current %llu) rejected", req.slot,
              static_cast<unsigned long long>(req.epoch),
              static_cast<unsigned long long>(slot.epoch)));
          rsp.kind = LeaseResponseKind::kFenced;
          return rsp;
        }
        const std::size_t f =
            std::min(req.frontier, im.table.lease(req.slot).end);
        if (f > slot.frontier)
          transition({.op = Op::kFrontier, .slot = req.slot, .at = f});
        if (req.wall_us > 0)
          im.timeout.record(static_cast<double>(req.wall_us) / 1e6);
        slot.last_retries = req.retries;
        sum_client_retries();
        rsp.kind = LeaseResponseKind::kOk;
        rsp.begin = im.table.lease(req.slot).begin;
        rsp.end = im.table.lease(req.slot).end;
        return rsp;
      }
      case LeaseOp::kSteal: {
        if (im.completed) {
          rsp.kind = LeaseResponseKind::kDone;
          return rsp;
        }
        if (!im.table.drained(req.slot)) {
          const Lease& lease = im.table.lease(req.slot);
          const std::size_t f = std::min(slot.frontier, lease.end);
          if (f < lease.end && req.epoch == slot.epoch && !slot.expired) {
            // The worker believes it drained but the server still sees a
            // tail — a lost/reordered final commit. Re-grant the remainder
            // under the same epoch; resume-skip makes the re-run cheap.
            return granted(slot.epoch, f, lease.end);
          }
          if (req.epoch != slot.epoch || slot.expired) {
            ++stats_.fenced;
            rsp.kind = LeaseResponseKind::kFenced;
            return rsp;
          }
          transition({.op = Op::kDrained, .slot = req.slot});
          obs::instant("lease", "drained", "slot",
                       static_cast<std::int64_t>(req.slot));
        }
        return find_work(req.slot);
      }
      default: {
        rsp.kind = LeaseResponseKind::kError;
        rsp.text = "unsupported op";
        ++stats_.bad_requests;
        return rsp;
      }
    }
  };

  auto next_status = Clock::now() + obs::kStatusInterval;
  std::optional<Clock::time_point> linger_until;

  auto write_status = [&] {
    if (options_.status_path.empty()) return;
    obs::write_status_file(options_.status_path, snapshot(Clock::now()));
  };
  write_status();

  while (!stop_.load(std::memory_order_relaxed)) {
    const auto now = Clock::now();
    if (im.completed && !linger_until)
      linger_until = now + std::chrono::milliseconds(options_.linger_ms);
    if (linger_until && now >= *linger_until) break;
    auto until = linger_until ? *linger_until : expire_silent_slots(now);
    if (!options_.status_path.empty()) {
      if (now >= next_status) {
        next_status = now + obs::kStatusInterval;
        write_status();
      }
      until = std::min(until, next_status);
    }

    // Every request is answered inline on this thread; the core keeps a
    // slow or half-sent peer from delaying anyone else.
    for (const auto& ev : im.server.poll(until)) {
      if (ev.kind != util::FrameServer::Event::Kind::kFrame ||
          !im.server.open(ev.conn))
        continue;
      const auto req = LeaseRequest::parse(ev.payload);
      if (!req) {
        ++stats_.bad_requests;
        im.server.close(ev.conn);  // unparseable: the stream is not trusted
        continue;
      }
      LeaseResponse rsp = handle(*req);
      // The seq echo is the client's stale-frame filter; enforce the
      // invariant here so no handler path (find_work in particular) can
      // return a frame the client would discard.
      rsp.seq = req->seq;
      im.server.send(ev.conn, rsp.encode());
    }
    stats_.evicted = im.server.evicted();
  }

  im.server.shutdown();
  stats_.completed = im.completed;
  write_status();
  return stats_;
}

}  // namespace oracle::exp
