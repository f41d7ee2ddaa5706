#include "topo/topology.hpp"

#include <algorithm>

namespace oracle::topo {

namespace {

// Offsets are 32-bit to keep the index arrays cache-dense; a topology
// whose relations outgrow that is far beyond what a run could hold anyway.
std::uint32_t checked_offset(std::size_t n) {
  ORACLE_REQUIRE(n < UINT32_MAX, "topology too large for 32-bit offsets");
  return static_cast<std::uint32_t>(n);
}

// Turn per-row counts (in offsets[1..]) into row starts.
void prefix_sum(std::vector<std::uint32_t>& offsets) {
  std::size_t total = 0;
  for (std::uint32_t& o : offsets) {
    total += o;
    o = checked_offset(total);
  }
}

}  // namespace

LinkId Topology::add_link(std::span<const NodeId> members) {
  ORACLE_ASSERT_MSG(!finalized_, "add_link after finalize");
  const std::size_t begin = link_members_.size();
  link_members_.insert(link_members_.end(), members.begin(), members.end());
  const auto first = link_members_.begin() + static_cast<std::ptrdiff_t>(begin);
  std::sort(first, link_members_.end());
  link_members_.erase(std::unique(first, link_members_.end()),
                      link_members_.end());
  ORACLE_ASSERT_MSG(link_members_.size() - begin >= 2,
                    "link must join at least two nodes");
  ORACLE_ASSERT(link_members_.back() < num_nodes_);
  const LinkId id = static_cast<LinkId>(num_links());
  link_offsets_.push_back(checked_offset(link_members_.size()));
  return id;
}

void Topology::finalize() {
  ORACLE_ASSERT_MSG(!finalized_, "finalize called twice");
  link_members_.shrink_to_fit();
  link_offsets_.shrink_to_fit();
  const std::size_t links = num_links();

  // Links of each node: a counting sort of (member, link) by member.
  // Scanning links in id order leaves every row ascending.
  node_link_offsets_.assign(num_nodes_ + 1, 0);
  for (const NodeId m : link_members_) ++node_link_offsets_[m + 1];
  prefix_sum(node_link_offsets_);
  node_links_.resize(link_members_.size());
  std::vector<std::uint32_t> cursor(node_link_offsets_.begin(),
                                    node_link_offsets_.end() - 1);
  for (LinkId lid = 0; lid < links; ++lid)
    for (const NodeId m : link_members(lid)) node_links_[cursor[m]++] = lid;

  // Neighbor rows. Gather every (neighbor, link) pair as one key with the
  // neighbor in the high word, sort each row, and keep the first key per
  // neighbor: the lowest link joining the pair.
  std::vector<std::uint32_t> candidate_offsets(num_nodes_ + 1, 0);
  for (LinkId lid = 0; lid < links; ++lid) {
    const auto members = link_members(lid);
    const auto others = static_cast<std::uint32_t>(members.size() - 1);
    for (const NodeId m : members) candidate_offsets[m + 1] += others;
  }
  prefix_sum(candidate_offsets);
  std::vector<std::uint64_t> keys(candidate_offsets.back());
  cursor.assign(candidate_offsets.begin(), candidate_offsets.end() - 1);
  for (LinkId lid = 0; lid < links; ++lid) {
    const auto members = link_members(lid);
    for (const NodeId a : members)
      for (const NodeId b : members)
        if (a != b)
          keys[cursor[a]++] = (static_cast<std::uint64_t>(b) << 32) | lid;
  }
  adjacency_offsets_.assign(num_nodes_ + 1, 0);
  adjacency_.reserve(keys.size());
  adjacency_link_.reserve(keys.size());
  for (NodeId n = 0; n < num_nodes_; ++n) {
    const auto first = keys.begin() + candidate_offsets[n];
    const auto last = keys.begin() + candidate_offsets[n + 1];
    std::sort(first, last);
    for (auto it = first; it != last; ++it) {
      const auto neighbor = static_cast<NodeId>(*it >> 32);
      if (it != first && neighbor == adjacency_.back()) continue;
      adjacency_.push_back(neighbor);
      adjacency_link_.push_back(static_cast<LinkId>(*it));
    }
    adjacency_offsets_[n + 1] = checked_offset(adjacency_.size());
  }
  adjacency_.shrink_to_fit();
  adjacency_link_.shrink_to_fit();
  finalized_ = true;
}

LinkId Topology::link_between(NodeId from, NodeId to) const {
  ORACLE_ASSERT(to < num_nodes_);
  const auto row = neighbors(from);
  const auto it = std::lower_bound(row.begin(), row.end(), to);
  if (it == row.end() || *it != to) return kInvalidLink;
  return adjacency_link_[neighbor_offset(from) +
                         static_cast<std::size_t>(it - row.begin())];
}

std::size_t Topology::max_degree() const {
  std::size_t best = 0;
  for (NodeId n = 0; n < num_nodes_; ++n)
    best = std::max(best, neighbors(n).size());
  return best;
}

bool Topology::are_neighbors(NodeId a, NodeId b) const {
  if (a == b) return false;
  const auto adj = neighbors(a);
  return std::binary_search(adj.begin(), adj.end(), b);
}

}  // namespace oracle::topo
