#include "exp/job.hpp"

#include <cctype>

#include "util/string_util.hpp"

namespace oracle::exp {

std::string job_canonical_string(const core::ExperimentConfig& config) {
  const auto& c = config.costs;
  const auto& m = config.machine;
  // v1: bump the version tag if the serialization ever changes meaning, so
  // old stores cannot silently satisfy new jobs.
  return strfmt(
      "v1|topo=%s|strat=%s|wl=%s|leaf=%lld|split=%lld|combine=%lld|"
      "hop=%lld|ctrl=%lld|word=%lld|gsz=%u|rsz=%u|csz=%u|lm=%u|coproc=%d|"
      "piggy=%d|start=%u|seed=%llu|sample=%lld|perpe=%d|maxev=%llu|"
      "slowpct=%u|slowf=%u",
      config.topology.c_str(), config.strategy.c_str(),
      config.workload.c_str(), static_cast<long long>(c.leaf_cost),
      static_cast<long long>(c.split_cost),
      static_cast<long long>(c.combine_cost),
      static_cast<long long>(m.hop_latency),
      static_cast<long long>(m.ctrl_latency),
      static_cast<long long>(m.word_time), m.goal_msg_size,
      m.response_msg_size, m.ctrl_msg_size,
      static_cast<unsigned>(m.load_measure), m.lb_coprocessor ? 1 : 0,
      m.piggyback_load ? 1 : 0, m.start_pe,
      static_cast<unsigned long long>(m.seed),
      static_cast<long long>(m.sample_interval), m.monitor_per_pe ? 1 : 0,
      static_cast<unsigned long long>(m.max_events), m.slow_pe_percent,
      m.slow_factor);
}

std::uint64_t job_content_hash(const core::ExperimentConfig& config) {
  return fnv1a64(job_canonical_string(config));
}

std::string hash_hex(std::uint64_t hash) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(hash));
  return std::string(buf, 16);
}

bool parse_hash_hex(std::string_view hex, std::uint64_t& out) {
  if (hex.size() != 16) return false;
  std::uint64_t v = 0;
  for (const char ch : hex) {
    v <<= 4;
    if (ch >= '0' && ch <= '9') {
      v |= static_cast<std::uint64_t>(ch - '0');
    } else if (ch >= 'a' && ch <= 'f') {
      v |= static_cast<std::uint64_t>(ch - 'a' + 10);
    } else {
      return false;
    }
  }
  out = v;
  return true;
}

}  // namespace oracle::exp
