#include "exp/job.hpp"

#include "util/text_out.hpp"

namespace oracle::exp {

namespace {

/// The canonical bytes, in their one fixed order. Both job identity
/// outputs are this list: job_canonical_string writes it into a string,
/// job_content_hash folds the same pieces into FNV-1a. Integers print as
/// printf's %lld / %u / %llu do, so stores written by any build agree.
template <typename Out>
void write_canonical(const core::ExperimentConfig& config, Out& out) {
  const auto& c = config.costs;
  const auto& m = config.machine;
  // v1: bump the version tag if the serialization ever changes meaning, so
  // old stores cannot silently satisfy new jobs.
  out << "v1|topo=" << config.topology << "|strat=" << config.strategy
      << "|wl=" << config.workload << "|leaf=" << c.leaf_cost
      << "|split=" << c.split_cost << "|combine=" << c.combine_cost
      << "|hop=" << m.hop_latency << "|ctrl=" << m.ctrl_latency
      << "|word=" << m.word_time << "|gsz=" << m.goal_msg_size
      << "|rsz=" << m.response_msg_size << "|csz=" << m.ctrl_msg_size
      << "|lm=" << static_cast<unsigned>(m.load_measure)
      << "|coproc=" << (m.lb_coprocessor ? 1 : 0)
      << "|piggy=" << (m.piggyback_load ? 1 : 0) << "|start=" << m.start_pe
      << "|seed=" << m.seed << "|sample=" << m.sample_interval
      << "|perpe=" << (m.monitor_per_pe ? 1 : 0)
      << "|maxev=" << m.max_events << "|slowpct=" << m.slow_pe_percent
      << "|slowf=" << m.slow_factor;
}

}  // namespace

std::string job_canonical_string(const core::ExperimentConfig& config) {
  std::string s;
  util::StringOut out(s);
  write_canonical(config, out);
  return s;
}

std::uint64_t job_content_hash(const core::ExperimentConfig& config) {
  util::Fnv1aOut out;
  write_canonical(config, out);
  return out.hash();
}

std::string hash_hex(std::uint64_t hash) {
  std::string s;
  util::StringOut out(s);
  out << util::Hex16{hash};
  return s;
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
