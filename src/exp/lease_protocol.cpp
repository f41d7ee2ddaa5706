#include "exp/lease_protocol.hpp"

#include <vector>

#include "util/net.hpp"
#include "util/string_util.hpp"

namespace oracle::exp {

namespace {

const char* kind_name(LeaseResponseKind k) {
  switch (k) {
    case LeaseResponseKind::kLease: return "lease";
    case LeaseResponseKind::kOk: return "ok";
    case LeaseResponseKind::kFenced: return "fenced";
    case LeaseResponseKind::kEmpty: return "empty";
    case LeaseResponseKind::kDone: return "done";
    case LeaseResponseKind::kStatus: return "status";
    case LeaseResponseKind::kError: return "error";
  }
  return "?";
}

}  // namespace

std::string LeaseRequest::encode() const {
  switch (op) {
    case LeaseOp::kAcquire:
      return strfmt("%s %llu acquire %zu %zu %zu", kLeaseProtoVersion,
                    static_cast<unsigned long long>(seq), slot, slot_count,
                    jobs);
    case LeaseOp::kCommit:
      return strfmt("%s %llu commit %zu %llu %zu %llu %llu",
                    kLeaseProtoVersion, static_cast<unsigned long long>(seq),
                    slot, static_cast<unsigned long long>(epoch), frontier,
                    static_cast<unsigned long long>(wall_us),
                    static_cast<unsigned long long>(retries));
    case LeaseOp::kSteal:
      return strfmt("%s %llu steal %zu %llu", kLeaseProtoVersion,
                    static_cast<unsigned long long>(seq), slot,
                    static_cast<unsigned long long>(epoch));
    case LeaseOp::kStatus:
      return strfmt("%s %llu status", kLeaseProtoVersion,
                    static_cast<unsigned long long>(seq));
  }
  return {};
}

std::optional<LeaseRequest> LeaseRequest::parse(const std::string& payload) {
  const auto frame = util::TextFrame::parse(payload, kLeaseProtoVersion);
  if (!frame) return std::nullopt;
  const util::TextFrame& tok = *frame;
  LeaseRequest req;
  req.seq = tok.seq;
  const std::string& op = tok.tok(2);
  const auto u64_at = [&](std::size_t i) { return tok.u64(i); };
  if (op == "acquire") {
    req.op = LeaseOp::kAcquire;
    const auto a = u64_at(3), b = u64_at(4), c = u64_at(5);
    if (!a || !b || !c || tok.size() != 6) return std::nullopt;
    req.slot = static_cast<std::size_t>(*a);
    req.slot_count = static_cast<std::size_t>(*b);
    req.jobs = static_cast<std::size_t>(*c);
    return req;
  }
  if (op == "steal") {
    req.op = LeaseOp::kSteal;
    const auto a = u64_at(3), b = u64_at(4);
    if (!a || !b || tok.size() != 5) return std::nullopt;
    req.slot = static_cast<std::size_t>(*a);
    req.epoch = *b;
    return req;
  }
  if (op == "commit") {
    req.op = LeaseOp::kCommit;
    const auto a = u64_at(3), b = u64_at(4), c = u64_at(5), d = u64_at(6),
               e = u64_at(7);
    if (!a || !b || !c || !d || !e || tok.size() != 8) return std::nullopt;
    req.slot = static_cast<std::size_t>(*a);
    req.epoch = *b;
    req.frontier = static_cast<std::size_t>(*c);
    req.wall_us = *d;
    req.retries = *e;
    return req;
  }
  if (op == "status") {
    if (tok.size() != 3) return std::nullopt;
    req.op = LeaseOp::kStatus;
    return req;
  }
  return std::nullopt;
}

std::string LeaseResponse::encode() const {
  switch (kind) {
    case LeaseResponseKind::kLease:
      return strfmt("%s %llu lease %llu %zu %zu", kLeaseProtoVersion,
                    static_cast<unsigned long long>(seq),
                    static_cast<unsigned long long>(epoch), begin, end);
    case LeaseResponseKind::kOk:
      return strfmt("%s %llu ok %zu %zu", kLeaseProtoVersion,
                    static_cast<unsigned long long>(seq), begin, end);
    case LeaseResponseKind::kFenced:
    case LeaseResponseKind::kEmpty:
    case LeaseResponseKind::kDone:
      return strfmt("%s %llu %s", kLeaseProtoVersion,
                    static_cast<unsigned long long>(seq), kind_name(kind));
    case LeaseResponseKind::kStatus:
    case LeaseResponseKind::kError:
      return strfmt("%s %llu %s %s", kLeaseProtoVersion,
                    static_cast<unsigned long long>(seq), kind_name(kind),
                    text.c_str());
  }
  return {};
}

std::optional<LeaseResponse> LeaseResponse::parse(
    const std::string& payload) {
  const auto frame = util::TextFrame::parse(payload, kLeaseProtoVersion);
  if (!frame) return std::nullopt;
  const util::TextFrame& tok = *frame;
  LeaseResponse rsp;
  rsp.seq = tok.seq;
  const std::string& kind = tok.tok(2);
  const auto u64_at = [&](std::size_t i) { return tok.u64(i); };
  if (kind == "lease") {
    rsp.kind = LeaseResponseKind::kLease;
    const auto a = u64_at(3), b = u64_at(4), c = u64_at(5);
    if (!a || !b || !c || tok.size() != 6) return std::nullopt;
    rsp.epoch = *a;
    rsp.begin = static_cast<std::size_t>(*b);
    rsp.end = static_cast<std::size_t>(*c);
    return rsp;
  }
  if (kind == "ok") {
    rsp.kind = LeaseResponseKind::kOk;
    const auto a = u64_at(3), b = u64_at(4);
    if (!a || !b || tok.size() != 5) return std::nullopt;
    rsp.begin = static_cast<std::size_t>(*a);
    rsp.end = static_cast<std::size_t>(*b);
    return rsp;
  }
  if (kind == "fenced" || kind == "empty" || kind == "done") {
    if (tok.size() != 3) return std::nullopt;
    rsp.kind = kind == "fenced"  ? LeaseResponseKind::kFenced
               : kind == "empty" ? LeaseResponseKind::kEmpty
                                 : LeaseResponseKind::kDone;
    return rsp;
  }
  if (kind == "status" || kind == "error") {
    rsp.kind = kind == "status" ? LeaseResponseKind::kStatus
                                : LeaseResponseKind::kError;
    // The remainder of the payload (may itself contain spaces).
    rsp.text = std::string(trim(tok.text_after(2)));
    return rsp;
  }
  return std::nullopt;
}

}  // namespace oracle::exp
