#include "exp/lease_client.hpp"

#include <chrono>
#include <thread>

#include "obs/trace.hpp"
#include "util/string_util.hpp"

namespace oracle::exp {

namespace {

std::uint64_t xorshift64(std::uint64_t& s) {
  s ^= s << 13;
  s ^= s >> 7;
  s ^= s << 17;
  return s;
}

}  // namespace

LeaseClient::LeaseClient(LeaseClientOptions options)
    : options_(std::move(options)),
      jitter_state_(fnv1a64(strfmt("lease-jitter %zu", options_.slot))) {}

LeaseClient::~LeaseClient() = default;

void LeaseClient::backoff_sleep(std::size_t attempt) {
  // Exponential with full jitter: sleep a uniformly random fraction of
  // min(base * 2^attempt, cap). Deterministic per slot (xorshift seeded
  // from the slot) so the fault-injection tests replay the same schedule.
  const std::uint64_t base = options_.backoff_base_ms;
  const std::uint64_t cap = std::max<std::uint64_t>(options_.backoff_cap_ms, 1);
  std::uint64_t ceiling = base;
  for (std::size_t i = 0; i < attempt && ceiling < cap; ++i) ceiling *= 2;
  ceiling = std::min(ceiling, cap);
  const std::uint64_t ms =
      ceiling == 0 ? 0 : 1 + xorshift64(jitter_state_) % ceiling;
  std::this_thread::sleep_for(std::chrono::milliseconds(ms));
}

bool LeaseClient::attempt(const LeaseRequest& req, LeaseResponse* rsp) {
  const auto deadline = util::NetClock::now() +
                        std::chrono::milliseconds(options_.op_timeout_ms);
  if (!conn_.valid()) {
    conn_ = util::connect_tcp(options_.server, deadline);
    if (!conn_.valid()) return false;
    ++reconnects_;
    obs::instant("lease", "client.reconnect", "slot",
                 static_cast<std::int64_t>(options_.slot));
  }
  if (!util::send_frame(conn_.fd(), req.encode(), deadline)) {
    conn_.close();
    return false;
  }
  // Drain frames until the matching seq: stale frames (a duplicated or
  // delayed response to an attempt we already gave up on) are discarded.
  while (true) {
    const auto frame = util::recv_frame(conn_.fd(), deadline);
    if (!frame) {
      conn_.close();
      return false;
    }
    const auto parsed = LeaseResponse::parse(*frame);
    if (!parsed) {
      conn_.close();  // corrupt frame: the stream cannot be trusted
      return false;
    }
    if (parsed->seq != req.seq) continue;  // stale/duplicate response
    *rsp = *parsed;
    return true;
  }
}

LeaseResponse LeaseClient::call(LeaseRequest req) {
  req.seq = next_seq_++;
  obs::Span span("lease", "client.call", "op",
                 static_cast<std::int64_t>(req.op));
  LeaseResponse rsp;
  for (std::size_t failures = 0;; ++failures) {
    if (attempt(req, &rsp)) {
      if (failures > 0)
        obs::counter("lease", "client.retries", "total",
                     static_cast<std::int64_t>(retries_));
      if (rsp.kind == LeaseResponseKind::kFenced) ++fenced_;
      return rsp;
    }
    if (failures >= options_.retry_budget) {
      throw LeaseOrphanedError(
          strfmt("lease server %s unreachable (retry budget %zu exhausted)",
                 options_.server.str().c_str(), options_.retry_budget));
    }
    ++retries_;
    backoff_sleep(failures);
  }
}

std::optional<LeaseGrant> LeaseClient::work_request(LeaseRequest req) {
  // `empty` means "someone is still running; nothing to steal *yet*" —
  // poll at the base backoff until the verdict becomes lease or done. The
  // poll does not back off further: a sweep ends only once its idle
  // workers have heard `done`.
  while (true) {
    const LeaseResponse rsp = call(req);
    switch (rsp.kind) {
      case LeaseResponseKind::kLease:
        return LeaseGrant{rsp.epoch, rsp.begin, rsp.end};
      case LeaseResponseKind::kDone:
        return std::nullopt;
      case LeaseResponseKind::kEmpty:
        backoff_sleep(0);
        break;
      case LeaseResponseKind::kFenced:
        // Only a stale-epoch steal can land here; re-acquiring the slot
        // issues a fresh epoch.
        req.op = LeaseOp::kAcquire;
        req.slot_count = options_.slot_count;
        req.jobs = options_.jobs;
        break;
      default:
        throw SimulationError(strfmt("lease server rejected slot %zu's "
                                     "lease request: %s",
                                     options_.slot, rsp.text.c_str()));
    }
  }
}

std::optional<LeaseGrant> LeaseClient::acquire() {
  LeaseRequest req;
  req.op = LeaseOp::kAcquire;
  req.slot = options_.slot;
  req.slot_count = options_.slot_count;
  req.jobs = options_.jobs;
  return work_request(req);
}

std::optional<LeaseGrant> LeaseClient::next_lease(std::uint64_t drained_epoch) {
  LeaseRequest req;
  req.op = LeaseOp::kSteal;
  req.slot = options_.slot;
  req.epoch = drained_epoch;
  return work_request(req);
}

LeaseClient::CommitResult LeaseClient::commit(std::uint64_t epoch,
                                              std::size_t frontier,
                                              std::uint64_t wall_us,
                                              std::size_t* current_end) {
  LeaseRequest req;
  req.op = LeaseOp::kCommit;
  req.slot = options_.slot;
  req.epoch = epoch;
  req.frontier = frontier;
  req.wall_us = wall_us;
  req.retries = retries_;
  const LeaseResponse rsp = call(req);
  if (rsp.kind == LeaseResponseKind::kFenced) return CommitResult::kFenced;
  if (rsp.kind == LeaseResponseKind::kDone) return CommitResult::kDone;
  if (rsp.kind != LeaseResponseKind::kOk)
    throw SimulationError("lease server rejected commit: " + rsp.text);
  if (current_end) *current_end = rsp.end;
  return CommitResult::kOk;
}

std::optional<std::string> LeaseClient::status() {
  LeaseRequest req;
  req.op = LeaseOp::kStatus;
  try {
    const LeaseResponse rsp = call(req);
    if (rsp.kind != LeaseResponseKind::kStatus) return std::nullopt;
    return rsp.text;
  } catch (const LeaseOrphanedError&) {
    return std::nullopt;
  }
}

}  // namespace oracle::exp
