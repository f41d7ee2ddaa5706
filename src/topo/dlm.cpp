#include "topo/dlm.hpp"

#include <algorithm>
#include <set>

#include "util/string_util.hpp"

namespace oracle::topo {

DoubleLatticeMesh::DoubleLatticeMesh(std::uint32_t span, std::uint32_t rows,
                                     std::uint32_t cols)
    : Topology(strfmt("dlm-%u-%ux%u", span, rows, cols), rows * cols),
      span_(span),
      rows_(rows),
      cols_(cols) {
  ORACLE_REQUIRE(span >= 2, "DLM bus-span must be >= 2");
  ORACLE_REQUIRE(rows >= 1 && cols >= 1, "DLM dimensions must be >= 1");
  ORACLE_REQUIRE(span <= std::max(rows, cols),
                 "DLM bus-span larger than both dimensions");
  build_dimension(true);
  build_dimension(false);
  finalize();
}

void DoubleLatticeMesh::build_dimension(bool row_major) {
  const std::uint32_t nmajor = row_major ? rows_ : cols_;  // lines
  const std::uint32_t nminor = row_major ? cols_ : rows_;  // positions in line
  if (nminor < 2) return;  // a 1-wide dimension has no buses
  const std::uint32_t span = std::min(span_, nminor);

  auto node = [&](std::uint32_t major, std::uint32_t minor) {
    return row_major ? node_at(major, minor) : node_at(minor, major);
  };

  // Dedupe: with span == nminor the local and skip lattices coincide.
  std::set<std::vector<NodeId>> seen;
  auto add_bus = [&](std::vector<NodeId> members, bool local) {
    std::sort(members.begin(), members.end());
    members.erase(std::unique(members.begin(), members.end()), members.end());
    if (members.size() < 2) return;
    if (!seen.insert(members).second) return;
    add_link(members);
    if (local)
      ++local_buses_;
    else
      ++skip_buses_;
  };

  for (std::uint32_t major = 0; major < nmajor; ++major) {
    // Local lattice: contiguous segments of `span` positions; a remainder
    // shorter than 2 is folded into the previous bus.
    for (std::uint32_t start = 0; start < nminor; start += span) {
      std::uint32_t end = std::min(start + span, nminor);
      if (nminor - end == 1) end = nminor;  // absorb length-1 remainder
      std::vector<NodeId> members;
      for (std::uint32_t m = start; m < end; ++m) members.push_back(node(major, m));
      add_bus(std::move(members), true);
      if (end == nminor) break;
    }
    // Skip lattice: strided buses; stride chosen so each bus has ~span taps.
    const std::uint32_t stride = std::max(1u, nminor / span);
    if (stride > 1) {
      for (std::uint32_t j = 0; j < stride; ++j) {
        std::vector<NodeId> members;
        for (std::uint32_t m = j; m < nminor; m += stride)
          members.push_back(node(major, m));
        add_bus(std::move(members), false);
      }
    }
  }
}

}  // namespace oracle::topo
