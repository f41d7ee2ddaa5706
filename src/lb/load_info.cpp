#include "lb/load_info.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace oracle::lb {

void NeighborLoadTable::init(const topo::Topology& topo) {
  topo_ = &topo;
  loads_.assign(topo.num_neighbor_entries(), 0);
}

std::span<const std::int64_t> NeighborLoadTable::row(topo::NodeId pe) const {
  ORACLE_ASSERT(topo_ != nullptr && pe < topo_->num_nodes());
  return {loads_.data() + topo_->neighbor_offset(pe),
          topo_->neighbors(pe).size()};
}

void NeighborLoadTable::update(topo::NodeId pe, topo::NodeId from,
                               std::int64_t load) {
  ORACLE_ASSERT(topo_ != nullptr && pe < topo_->num_nodes());
  const auto nbrs = topo_->neighbors(pe);
  const auto it = std::lower_bound(nbrs.begin(), nbrs.end(), from);
  // A bus broadcast can reach PEs that share a link without being
  // "neighbors" of interest; ignore unknown senders defensively.
  if (it == nbrs.end() || *it != from) return;
  loads_[topo_->neighbor_offset(pe) +
         static_cast<std::size_t>(it - nbrs.begin())] = load;
}

std::int64_t NeighborLoadTable::estimate(topo::NodeId pe,
                                         topo::NodeId neighbor) const {
  const auto r = row(pe);
  const auto nbrs = topo_->neighbors(pe);
  const auto it = std::lower_bound(nbrs.begin(), nbrs.end(), neighbor);
  ORACLE_ASSERT_MSG(it != nbrs.end() && *it == neighbor, "not a neighbor");
  return r[static_cast<std::size_t>(it - nbrs.begin())];
}

std::int64_t NeighborLoadTable::min_load(topo::NodeId pe) const {
  const auto r = row(pe);
  if (r.empty()) return 0;
  return *std::min_element(r.begin(), r.end());
}

topo::NodeId NeighborLoadTable::least_loaded(topo::NodeId pe, Rng& rng) const {
  const auto r = row(pe);
  if (r.empty()) return topo::kInvalidNode;
  const std::int64_t best = *std::min_element(r.begin(), r.end());
  // Reservoir-style single pass over ties keeps selection uniform without
  // allocating a candidate list.
  std::size_t chosen = 0;
  std::uint64_t ties = 0;
  for (std::size_t i = 0; i < r.size(); ++i) {
    if (r[i] == best) {
      ++ties;
      if (rng.below(ties) == 0) chosen = i;
    }
  }
  return topo_->neighbors(pe)[chosen];
}

std::size_t NeighborLoadTable::degree(topo::NodeId pe) const {
  return row(pe).size();
}

}  // namespace oracle::lb
