#include "exp/lease_protocol.hpp"

#include "util/verb_codec.hpp"

namespace oracle::exp {

namespace {

using Q = LeaseRequest;
using R = LeaseResponse;

constexpr util::Verb<Q> kRequestVerbs[] = {
    {"acquire", {&Q::slot, &Q::slot_count, &Q::jobs}},
    {"commit", {&Q::slot, &Q::epoch, &Q::frontier, &Q::wall_us, &Q::retries}},
    {"steal", {&Q::slot, &Q::epoch}},
    {"status"},
};

constexpr util::Verb<R> kResponseVerbs[] = {
    {"lease", {&R::epoch, &R::begin, &R::end}},
    {"ok", {&R::begin, &R::end}},
    {"fenced"},
    {"empty"},
    {"done"},
    {"status", {}, nullptr, &R::text},
    {"error", {}, nullptr, &R::text},
};

constexpr util::Dialect<Q, LeaseOp> kRequests{kLeaseProtoVersion, &Q::seq,
                                              &Q::op, kRequestVerbs};
constexpr util::Dialect<R, LeaseResponseKind> kResponses{
    kLeaseProtoVersion, &R::seq, &R::kind, kResponseVerbs};

}  // namespace

std::string LeaseRequest::encode() const { return kRequests.encode(*this); }

std::optional<LeaseRequest> LeaseRequest::parse(const std::string& payload) {
  return kRequests.parse(payload);
}

std::string LeaseResponse::encode() const { return kResponses.encode(*this); }

std::optional<LeaseResponse> LeaseResponse::parse(
    const std::string& payload) {
  return kResponses.parse(payload);
}

}  // namespace oracle::exp
