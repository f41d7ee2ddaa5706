#pragma once
// Interconnection topology abstraction.
//
// A topology is a set of nodes (PEs) plus *links*. A link is either a
// point-to-point channel between two PEs (grids, hypercubes) or a multi-drop
// bus attaching several PEs (the double lattice mesh). Two PEs are
// "neighbors" iff they share at least one link — both load-balancing schemes
// in the paper are defined purely in terms of immediate neighbors.

#include <cstdint>
#include <initializer_list>
#include <span>
#include <string>
#include <vector>

#include "util/error.hpp"

namespace oracle::topo {

using NodeId = std::uint32_t;
using LinkId = std::uint32_t;

inline constexpr NodeId kInvalidNode = UINT32_MAX;
inline constexpr LinkId kInvalidLink = UINT32_MAX;

/// Immutable topology description. Concrete topologies add their links in
/// their constructors; finalize() then derives the node-side indexes.
///
/// Everything is stored compressed-sparse-row: one flat array per relation
/// plus an offset array, so a query touches at most two contiguous runs
/// instead of one heap object per link or per node. At 10^5–10^6 PEs the
/// per-object layout was the dominant memory and cache-miss cost of the
/// load-broadcast hot path.
class Topology {
 public:
  virtual ~Topology() = default;

  /// Human-readable name, e.g. "grid-10x10" or "dlm-5-10x10".
  const std::string& name() const noexcept { return name_; }

  std::uint32_t num_nodes() const noexcept { return num_nodes_; }
  std::size_t num_links() const noexcept { return link_offsets_.size() - 1; }

  /// PEs attached to link `lid`, sorted ascending: two for a
  /// point-to-point channel, more for a bus.
  std::span<const NodeId> link_members(LinkId lid) const {
    ORACLE_ASSERT(lid < num_links());
    return row(link_members_, link_offsets_, lid);
  }
  bool is_bus(LinkId lid) const { return link_members(lid).size() > 2; }

  /// Neighbor PEs of `node` (all PEs sharing a link, excluding itself),
  /// sorted ascending, deduplicated.
  std::span<const NodeId> neighbors(NodeId node) const {
    ORACLE_ASSERT(node < num_nodes_);
    return row(adjacency_, adjacency_offsets_, node);
  }

  /// Where `node`'s row starts in the flat neighbor array: a per-neighbor
  /// column of num_neighbor_entries() values holds `node`'s i-th
  /// neighbor's value at neighbor_offset(node) + i.
  std::size_t neighbor_offset(NodeId node) const {
    ORACLE_ASSERT(node < num_nodes_);
    return adjacency_offsets_[node];
  }
  std::size_t num_neighbor_entries() const noexcept {
    return adjacency_.size();
  }

  /// Links attached to `node`, ascending.
  std::span<const LinkId> links_of(NodeId node) const {
    ORACLE_ASSERT(node < num_nodes_);
    return row(node_links_, node_link_offsets_, node);
  }

  /// A link joining `from` and `to`, or kInvalidLink if they are not
  /// neighbors. When several links join the pair (DLM double coverage) the
  /// lowest link id is returned, deterministically. One binary search of
  /// `from`'s neighbor row.
  LinkId link_between(NodeId from, NodeId to) const;

  /// Closed-form next hop on a shortest path from `from` to `to`, for
  /// topology families with O(1) analytic routing (grids, hypercubes,
  /// trees). Returns kInvalidNode when the family has no closed form (the
  /// BFS RoutingTable is then required) or when from == to. Deterministic;
  /// for open grids and hypercubes it returns exactly the lowest-id
  /// candidate the BFS table would pick. This is what makes 10^5–10^6-node
  /// machines feasible: an O(n^2) routing table at that scale is neither
  /// computable nor storable.
  virtual NodeId analytic_next_hop(NodeId from, NodeId to) const {
    (void)from;
    (void)to;
    return kInvalidNode;
  }

  /// Closed-form diameter, or -1 when the family has no closed form (the
  /// O(n^2) DistanceMatrix is then required).
  virtual std::int64_t diameter_hint() const { return -1; }

  /// Maximum node degree (number of neighbors).
  std::size_t max_degree() const;

  bool are_neighbors(NodeId a, NodeId b) const;

 protected:
  Topology(std::string name, std::uint32_t num_nodes)
      : name_(std::move(name)), num_nodes_(num_nodes) {
    ORACLE_REQUIRE(num_nodes_ > 0, "topology must have at least one node");
  }

  /// Add a link over `members` (deduplicated, sorted). Returns its id.
  LinkId add_link(std::span<const NodeId> members);
  LinkId add_link(std::initializer_list<NodeId> members) {
    return add_link(std::span<const NodeId>(members.begin(), members.size()));
  }

  /// Build the node-side indexes; must be called at the end of every
  /// concrete constructor.
  void finalize();

 private:
  template <typename T>
  static std::span<const T> row(const std::vector<T>& flat,
                                const std::vector<std::uint32_t>& offsets,
                                std::size_t i) {
    return {flat.data() + offsets[i], flat.data() + offsets[i + 1]};
  }

  std::string name_;
  std::uint32_t num_nodes_;
  // Link l's members: link_members_[link_offsets_[l] .. link_offsets_[l+1]).
  std::vector<NodeId> link_members_;
  std::vector<std::uint32_t> link_offsets_{0};
  // Node n's neighbor row, and for each entry the lowest link joining the
  // pair (what link_between returns).
  std::vector<NodeId> adjacency_;
  std::vector<LinkId> adjacency_link_;
  std::vector<std::uint32_t> adjacency_offsets_;
  // Node n's links.
  std::vector<LinkId> node_links_;
  std::vector<std::uint32_t> node_link_offsets_;
  bool finalized_ = false;
};

}  // namespace oracle::topo
