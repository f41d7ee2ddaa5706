#include "machine/partition.hpp"

#include <algorithm>
#include <map>
#include <utility>

#include "util/error.hpp"
#include "util/string_util.hpp"

namespace oracle::machine {

std::uint32_t auto_num_shards(std::uint32_t num_pes) noexcept {
  return std::clamp<std::uint32_t>(num_pes / 4096, 1, 16);
}

PartitionPlan make_partition_plan(std::uint32_t num_pes,
                                  std::uint32_t requested) {
  ORACLE_REQUIRE(num_pes > 0, "partition plan needs at least one PE");
  PartitionPlan plan;
  plan.num_pes = num_pes;
  plan.num_shards = requested == 0
                        ? auto_num_shards(num_pes)
                        : std::min(requested, num_pes);
  return plan;
}

sim::Duration link_min_latency(const MachineConfig& config) noexcept {
  // Mirrors Machine's transmit cost model: goals and responses occupy a
  // channel for hop_latency + size * word_time, control words for
  // ctrl_latency + ctrl_size * word_time.
  const std::uint32_t payload_words =
      std::min(config.goal_msg_size, config.response_msg_size);
  const sim::Duration payload =
      config.hop_latency + config.word_time * payload_words;
  const sim::Duration ctrl =
      config.ctrl_latency + config.word_time * config.ctrl_msg_size;
  return std::min(payload, ctrl);
}

Lookahead compute_lookahead(const topo::Topology& topo,
                            const PartitionPlan& plan,
                            const MachineConfig& config) {
  Lookahead result;
  if (plan.num_shards <= 1) return result;  // never synchronizes

  const sim::Duration latency = link_min_latency(config);
  std::map<std::pair<std::uint32_t, std::uint32_t>, sim::Duration> edges;
  for (topo::LinkId lid = 0; lid < topo.num_links(); ++lid) {
    // A bus can attach members in several shards; every ordered pair of
    // distinct member shards is a potential message path.
    const auto members = topo.link_members(lid);
    for (const topo::NodeId a : members) {
      const std::uint32_t sa = plan.shard_of(a);
      for (const topo::NodeId b : members) {
        const std::uint32_t sb = plan.shard_of(b);
        if (sa == sb) continue;
        auto [it, inserted] =
            edges.emplace(std::make_pair(sa, sb), latency);
        if (!inserted) it->second = std::min(it->second, latency);
      }
    }
  }
  if (edges.empty()) return result;  // disjoint shards never interact

  result.edges.reserve(edges.size());
  for (const auto& [key, lat] : edges) {
    result.edges.push_back(PartitionEdge{key.first, key.second, lat});
    result.horizon = std::min(result.horizon, lat);
  }
  ORACLE_REQUIRE(
      result.horizon >= 1,
      strfmt("parallel simulation needs lookahead >= 1 tick, but the "
             "cheapest cross-partition message costs %lld (zero-latency "
             "links admit no conservative horizon); raise hop/ctrl latency "
             "or run with --sim-threads 1",
             static_cast<long long>(result.horizon)));
  return result;
}

}  // namespace oracle::machine
