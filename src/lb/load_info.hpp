#pragma once
// Neighbor-load bookkeeping shared by CWN, ACWN and the push baselines.
//
// Section 2.1: "Each PE maintains the load information about its immediate
// neighbors ... obtained by broadcasting a very short message to all the
// neighbors periodically, or as an optimization, piggy-backing the load
// information 'word' with regular messages." Values are therefore *stale
// estimates*, never ground truth — the table only updates from messages.

#include <cstdint>
#include <span>
#include <vector>

#include "topo/topology.hpp"
#include "util/rng.hpp"

namespace oracle::machine {
class Machine;
}

namespace oracle::lb {

class NeighborLoadTable {
 public:
  /// Allocate the load column; neighbors initially assumed load 0 (idle).
  void init(const topo::Topology& topo);

  /// Record that `pe` learned neighbor `from` has load `load`.
  void update(topo::NodeId pe, topo::NodeId from, std::int64_t load);

  /// `pe`'s current estimate of neighbor `neighbor`'s load.
  std::int64_t estimate(topo::NodeId pe, topo::NodeId neighbor) const;

  /// The minimum estimated load among `pe`'s neighbors (0 if none).
  std::int64_t min_load(topo::NodeId pe) const;

  /// The least-loaded neighbor of `pe`; ties broken uniformly at random
  /// (deterministic given the run's Rng). kInvalidNode if no neighbors.
  topo::NodeId least_loaded(topo::NodeId pe, Rng& rng) const;

  /// Number of neighbors tracked for `pe`.
  std::size_t degree(topo::NodeId pe) const;

 private:
  /// `pe`'s row of loads_, parallel to topo.neighbors(pe).
  std::span<const std::int64_t> row(topo::NodeId pe) const;

  const topo::Topology* topo_ = nullptr;
  // One flat column laid out like the topology's neighbor rows:
  // loads_[topo.neighbor_offset(pe) + i] = estimate for neighbors(pe)[i].
  std::vector<std::int64_t> loads_;
};

}  // namespace oracle::lb
