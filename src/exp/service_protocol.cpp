#include "exp/service_protocol.hpp"

#include "util/error.hpp"
#include "util/spec.hpp"
#include "util/string_util.hpp"
#include "util/verb_codec.hpp"

namespace oracle::exp {

namespace {

/// A request as framed: the query travels as free text, parsed by
/// parse_query below.
struct RequestFrame {
  std::uint64_t seq = 0;
  ServiceOp op = ServiceOp::kPing;
  std::string body;
};

using F = RequestFrame;
using R = ServiceResponse;

constexpr util::Verb<F> kRequestVerbs[] = {
    {"ping"},
    {"status"},
    {"query", {}, nullptr, &F::body},
    {"shutdown"},
};

constexpr util::Verb<R> kResponseVerbs[] = {
    {"ok"},
    {"error", {}, nullptr, &R::text},
    {"status", {}, nullptr, &R::text},
    {"progress", {&R::total, &R::cached, &R::scheduled, &R::completed}},
    {"stats",
     {&R::total, &R::cached, &R::scheduled, &R::failed, &R::rounds,
      &R::wall_us}},
    {"table", {}, &R::metric, &R::text},
    {"csv", {}, nullptr, &R::text},
    {"done"},
};

constexpr util::Dialect<F, ServiceOp> kRequests{kServiceProtoVersion, &F::seq,
                                                &F::op, kRequestVerbs};
constexpr util::Dialect<R, ServiceResponseKind> kResponses{
    kServiceProtoVersion, &R::seq, &R::kind, kResponseVerbs};

std::string query_body(const ServiceQuery& query) {
  const core::SweepSpec& s = query.sweep;
  std::string out;
  const auto kv = [&](const char* key, const std::string& value) {
    if (!out.empty()) out += ' ';
    out += key;
    out += '=';
    out += value;
  };
  if (!s.preset.empty()) kv("preset", s.preset);
  kv("topos", join(s.topologies, ","));
  kv("strats", join(s.strategies, ","));
  kv("works", join(s.workloads, ","));
  kv("seeds", s.seed_list());
  if (s.master_seed != 0) kv("master", std::to_string(s.master_seed));
  if (s.sample_interval >= 0) kv("sample", std::to_string(s.sample_interval));
  if (s.hop_latency >= 0) kv("hoplat", std::to_string(s.hop_latency));
  if (s.sim_threads >= 0) kv("simthreads", std::to_string(s.sim_threads));
  if (s.sim_partitions >= 0)
    kv("simparts", std::to_string(s.sim_partitions));
  kv("metrics", join(query.metrics, ","));
  if (query.want_csv) kv("csv", "1");
  if (!query.target_metric.empty())
    kv("target", query.target_metric + ":" +
                     strfmt("%.17g", query.target_ci95));
  return out;
}

/// The `query` body: space-separated k=v pairs (header comment).
std::optional<ServiceQuery> parse_query(std::string_view body) {
  std::vector<std::pair<std::string, std::string>> pairs;
  for (const std::string& tok : split(body, ' ')) {
    if (tok.empty()) continue;  // a run of spaces
    const auto eq = tok.find('=');
    if (eq == std::string::npos || eq == 0 || eq + 1 == tok.size())
      return std::nullopt;
    pairs.emplace_back(tok.substr(0, eq), tok.substr(eq + 1));
  }
  ServiceQuery query;
  core::SweepSpec& s = query.sweep;
  const auto list = [](const std::string& value, std::vector<std::string>& out) {
    out = util::split_spec_list(value);
    return !out.empty();
  };
  const auto knob = [](const std::string& value, std::int64_t min,
                       std::int64_t& out) {
    out = parse_int(value, "query knob");
    return out >= min;
  };
  try {
    // The preset resets the axes, so it applies first; explicit axes and
    // knobs then win whatever their token order.
    for (const auto& [key, value] : pairs)
      if (key == "preset") s.apply_preset(value);
    for (const auto& [key, value] : pairs) {
      if (key == "preset") continue;
      bool ok = true;
      if (key == "topos") {
        ok = list(value, s.topologies);
      } else if (key == "strats") {
        ok = list(value, s.strategies);
      } else if (key == "works") {
        ok = list(value, s.workloads);
      } else if (key == "metrics") {
        ok = list(value, query.metrics);
      } else if (key == "seeds") {
        s.seeds = core::SweepSpec::parse_seed_axis(value);
      } else if (key == "master") {
        const auto master = util::parse_u64_token(value);
        ok = master && *master != 0;
        s.master_seed = master.value_or(0);
      } else if (key == "sample") {
        ok = knob(value, 0, s.sample_interval);
      } else if (key == "hoplat") {
        ok = knob(value, 0, s.hop_latency);
      } else if (key == "simthreads") {
        ok = knob(value, 1, s.sim_threads);
      } else if (key == "simparts") {
        ok = knob(value, 0, s.sim_partitions);
      } else if (key == "csv") {
        ok = value == "0" || value == "1";
        query.want_csv = value == "1";
      } else if (key == "target") {
        const auto colon = value.rfind(':');
        ok = colon != std::string::npos && colon != 0;
        if (ok) {
          query.target_metric = value.substr(0, colon);
          query.target_ci95 = parse_double(value.substr(colon + 1), "target");
          ok = query.target_ci95 > 0.0;  // false for NaN too
        }
      } else {
        ok = false;  // unknown key: reject, don't guess
      }
      if (!ok) return std::nullopt;
    }
  } catch (const ConfigError&) {
    return std::nullopt;
  }
  return query;
}

}  // namespace

std::string ServiceRequest::encode() const {
  return kRequests.encode(
      {seq, op, op == ServiceOp::kQuery ? query_body(query) : std::string()});
}

std::optional<ServiceRequest> ServiceRequest::parse(
    const std::string& payload) {
  const auto frame = kRequests.parse(payload);
  if (!frame) return std::nullopt;
  ServiceRequest req;
  req.seq = frame->seq;
  req.op = frame->op;
  if (req.op == ServiceOp::kQuery) {
    auto query = parse_query(frame->body);
    if (!query) return std::nullopt;
    req.query = std::move(*query);
  }
  return req;
}

std::string ServiceResponse::encode() const {
  return kResponses.encode(*this);
}

std::optional<ServiceResponse> ServiceResponse::parse(
    const std::string& payload) {
  return kResponses.parse(payload);
}

}  // namespace oracle::exp
