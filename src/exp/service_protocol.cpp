#include "exp/service_protocol.hpp"

#include "util/error.hpp"
#include "util/string_util.hpp"
#include "util/verb_codec.hpp"

namespace oracle::exp {

namespace {

std::string csv_of(const std::vector<std::string>& items) {
  return join(items, ",");
}

std::vector<std::string> list_of(const std::string& value) {
  std::vector<std::string> out;
  for (const auto& item : split(value, ',')) {
    const auto t = trim(item);
    if (!t.empty()) out.emplace_back(t);
  }
  return out;
}

std::string seeds_csv(const std::vector<std::uint64_t>& seeds) {
  std::vector<std::string> strs;
  strs.reserve(seeds.size());
  for (const auto s : seeds) strs.push_back(std::to_string(s));
  // Trailing comma keeps a single seed parsing as an explicit list.
  return join(strs, ",") + (seeds.size() == 1 ? "," : "");
}

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
  kv("topos", csv_of(s.topologies));
  kv("strats", csv_of(s.strategies));
  kv("works", csv_of(s.workloads));
  kv("seeds", seeds_csv(s.seeds));
  if (s.master_seed != 0) kv("master", std::to_string(s.master_seed));
  if (s.sample_interval >= 0) kv("sample", std::to_string(s.sample_interval));
  if (s.hop_latency >= 0) kv("hoplat", std::to_string(s.hop_latency));
  if (s.sim_threads >= 0) kv("simthreads", std::to_string(s.sim_threads));
  if (s.sim_partitions >= 0)
    kv("simparts", std::to_string(s.sim_partitions));
  kv("metrics", csv_of(query.metrics));
  if (query.want_csv) kv("csv", "1");
  if (!query.target_metric.empty())
    kv("target", query.target_metric + ":" +
                     strfmt("%.17g", query.target_ci95));
  return out;
}

/// The `query` body: space-separated k=v pairs (header comment).
std::optional<ServiceQuery> parse_query(std::string_view body) {
  ServiceQuery query;
  // Collect first, apply in fixed order: preset resets the axis defaults,
  // explicit axes/knobs then win regardless of their token order.
  std::string preset;
  std::optional<std::vector<std::string>> topos, strats, works, metrics;
  std::optional<std::vector<std::uint64_t>> seeds;
  std::optional<std::uint64_t> master;
  std::optional<std::int64_t> sample, hoplat, simthreads, simparts;
  bool want_csv = false;
  std::string target_metric;
  double target_ci95 = 0.0;

  const auto parse_knob = [](const std::string& v,
                             const char* what) -> std::optional<std::int64_t> {
    try {
      const auto n = parse_int(v, what);
      return n >= 0 ? std::optional<std::int64_t>(n) : std::nullopt;
    } catch (const ConfigError&) {
      return std::nullopt;
    }
  };

  for (const std::string& tok : split(body, ' ')) {
    if (tok.empty()) continue;  // a run of spaces
    const auto eq = tok.find('=');
    if (eq == std::string::npos || eq == 0) return std::nullopt;
    const std::string key = tok.substr(0, eq);
    const std::string value = tok.substr(eq + 1);
    if (value.empty()) return std::nullopt;
    if (key == "preset") {
      preset = value;
    } else if (key == "topos") {
      topos = list_of(value);
    } else if (key == "strats") {
      strats = list_of(value);
    } else if (key == "works") {
      works = list_of(value);
    } else if (key == "metrics") {
      metrics = list_of(value);
    } else if (key == "seeds") {
      try {
        seeds = core::SweepSpec::parse_seed_axis(value);
      } catch (const ConfigError&) {
        return std::nullopt;
      }
    } else if (key == "master") {
      master = util::parse_u64_token(value);
      if (!master || *master == 0) return std::nullopt;
    } else if (key == "sample") {
      if (!(sample = parse_knob(value, "sample"))) return std::nullopt;
    } else if (key == "hoplat") {
      if (!(hoplat = parse_knob(value, "hoplat"))) return std::nullopt;
    } else if (key == "simthreads") {
      if (!(simthreads = parse_knob(value, "simthreads"))) return std::nullopt;
      if (*simthreads < 1) return std::nullopt;
    } else if (key == "simparts") {
      if (!(simparts = parse_knob(value, "simparts"))) return std::nullopt;
    } else if (key == "csv") {
      if (value != "0" && value != "1") return std::nullopt;
      want_csv = value == "1";
    } else if (key == "target") {
      const auto colon = value.rfind(':');
      if (colon == std::string::npos || colon == 0) return std::nullopt;
      target_metric = value.substr(0, colon);
      try {
        target_ci95 = parse_double(value.substr(colon + 1), "target");
      } catch (const ConfigError&) {
        return std::nullopt;
      }
      if (!(target_ci95 > 0.0)) return std::nullopt;
    } else {
      return std::nullopt;  // unknown key: reject, don't guess
    }
  }

  core::SweepSpec& s = query.sweep;
  if (!preset.empty()) {
    try {
      s.apply_preset(preset);
    } catch (const ConfigError&) {
      return std::nullopt;
    }
  }
  if (topos) {
    if (topos->empty()) return std::nullopt;
    s.topologies = *topos;
  }
  if (strats) {
    if (strats->empty()) return std::nullopt;
    s.strategies = *strats;
  }
  if (works) {
    if (works->empty()) return std::nullopt;
    s.workloads = *works;
  }
  if (seeds) s.seeds = *seeds;
  if (master) s.master_seed = *master;
  if (sample) s.sample_interval = *sample;
  if (hoplat) s.hop_latency = *hoplat;
  if (simthreads) s.sim_threads = *simthreads;
  if (simparts) s.sim_partitions = *simparts;
  if (metrics) {
    if (metrics->empty()) return std::nullopt;
    query.metrics = *metrics;
  }
  query.want_csv = want_csv;
  query.target_metric = target_metric;
  query.target_ci95 = target_ci95;
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
