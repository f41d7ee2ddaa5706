// Tests for the topology substrate: grids, DLMs, hypercubes, rings, and
// the structural properties the paper's comparison depends on.

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "topo/dlm.hpp"
#include "topo/factory.hpp"
#include "topo/graph_algos.hpp"
#include "topo/grid.hpp"
#include "topo/hypercube.hpp"
#include "util/error.hpp"

namespace oracle::topo {
namespace {

// --------------------------------------------------------------------------
// Grid2D
// --------------------------------------------------------------------------

TEST(Grid, OpenGridLinkCount) {
  const Grid2D g(3, 4, false);
  EXPECT_EQ(g.num_nodes(), 12u);
  // 3 rows x 3 horizontal + 2 x 4 vertical = 9 + 8 = 17.
  EXPECT_EQ(g.num_links(), 17u);
}

TEST(Grid, TorusLinkCount) {
  const Grid2D g(4, 4, true);
  // Torus: 2 links per node.
  EXPECT_EQ(g.num_links(), 32u);
}

TEST(Grid, CornerDegreeOpen) {
  const Grid2D g(5, 5, false);
  EXPECT_EQ(g.neighbors(g.node_at(0, 0)).size(), 2u);
  EXPECT_EQ(g.neighbors(g.node_at(2, 2)).size(), 4u);
  EXPECT_EQ(g.neighbors(g.node_at(0, 2)).size(), 3u);
}

TEST(Grid, TorusAllDegreeFour) {
  const Grid2D g(5, 5, true);
  for (NodeId n = 0; n < g.num_nodes(); ++n)
    EXPECT_EQ(g.neighbors(n).size(), 4u);
}

TEST(Grid, PaperDiametersOpenGrid) {
  // The paper quotes grid diameters "from 8 to 38" (5x5 .. 20x20).
  EXPECT_EQ(DistanceMatrix(Grid2D(5, 5, false)).diameter(), 8u);
  EXPECT_EQ(DistanceMatrix(Grid2D(8, 8, false)).diameter(), 14u);
  EXPECT_EQ(DistanceMatrix(Grid2D(10, 10, false)).diameter(), 18u);
  EXPECT_EQ(DistanceMatrix(Grid2D(20, 20, false)).diameter(), 38u);
}

TEST(Grid, TorusDiameterHalves) {
  EXPECT_EQ(DistanceMatrix(Grid2D(10, 10, true)).diameter(), 10u);
}

TEST(Grid, ManhattanMatchesBfs) {
  const Grid2D g(6, 7, false);
  const DistanceMatrix dm(g);
  for (NodeId a = 0; a < g.num_nodes(); a += 5)
    for (NodeId b = 0; b < g.num_nodes(); b += 3)
      EXPECT_EQ(dm.distance(a, b), g.manhattan(a, b));
}

TEST(Grid, TorusManhattanMatchesBfs) {
  const Grid2D g(6, 6, true);
  const DistanceMatrix dm(g);
  for (NodeId a = 0; a < g.num_nodes(); ++a)
    for (NodeId b = 0; b < g.num_nodes(); ++b)
      ASSERT_EQ(dm.distance(a, b), g.manhattan(a, b));
}

TEST(Grid, TwoWideWrapHasNoDuplicateLinks) {
  const Grid2D g(2, 5, true);
  // Rows of length 2 would self-duplicate on wrap; ensure adjacency stays
  // a simple graph.
  for (NodeId n = 0; n < g.num_nodes(); ++n) {
    const auto& adj = g.neighbors(n);
    for (std::size_t i = 1; i < adj.size(); ++i)
      EXPECT_LT(adj[i - 1], adj[i]);  // sorted & unique
  }
}

TEST(Grid, SingleNodeGridIsValid) {
  const Grid2D g(1, 1, false);
  EXPECT_EQ(g.num_nodes(), 1u);
  EXPECT_TRUE(g.neighbors(0).empty());
}

// --------------------------------------------------------------------------
// Hypercube
// --------------------------------------------------------------------------

TEST(Hypercube, SizesAndDegrees) {
  for (std::uint32_t d = 1; d <= 8; ++d) {
    const Hypercube h(d);
    EXPECT_EQ(h.num_nodes(), 1u << d);
    for (NodeId n = 0; n < h.num_nodes(); ++n)
      ASSERT_EQ(h.neighbors(n).size(), d);
    EXPECT_EQ(h.num_links(), (static_cast<std::size_t>(d) << d) / 2);
  }
}

TEST(Hypercube, DiameterEqualsDimension) {
  for (std::uint32_t d : {2u, 5u, 7u}) {
    EXPECT_EQ(DistanceMatrix(Hypercube(d)).diameter(), d);
  }
}

TEST(Hypercube, BfsMatchesHamming) {
  const Hypercube h(6);
  const DistanceMatrix dm(h);
  for (NodeId a = 0; a < h.num_nodes(); a += 7)
    for (NodeId b = 0; b < h.num_nodes(); b += 5)
      EXPECT_EQ(dm.distance(a, b), Hypercube::hamming(a, b));
}

// --------------------------------------------------------------------------
// DoubleLatticeMesh
// --------------------------------------------------------------------------

TEST(Dlm, PaperConfigurationsConnectAndAreSmallDiameter) {
  // The paper relies on DLM diameters of 4-5 versus 8-38 for the grids.
  struct Case {
    std::uint32_t span, rows, cols, max_diameter;
  };
  for (const Case c : {Case{5, 5, 5, 3}, Case{4, 8, 8, 5}, Case{5, 10, 10, 5},
                       Case{4, 16, 16, 6}, Case{5, 20, 20, 6}}) {
    const DoubleLatticeMesh dlm(c.span, c.rows, c.cols);
    EXPECT_TRUE(is_connected(dlm)) << dlm.name();
    const DistanceMatrix dm(dlm);
    EXPECT_LE(dm.diameter(), c.max_diameter) << dlm.name();
    EXPECT_GE(dm.diameter(), 2u) << dlm.name();
  }
}

TEST(Dlm, EveryNodeOnFourBusesInRegularCase) {
  const DoubleLatticeMesh dlm(5, 10, 10);
  for (NodeId n = 0; n < dlm.num_nodes(); ++n)
    EXPECT_EQ(dlm.links_of(n).size(), 4u) << "node " << n;
}

TEST(Dlm, BusesHaveSpanMembers) {
  const DoubleLatticeMesh dlm(5, 10, 10);
  for (LinkId lid = 0; lid < dlm.num_links(); ++lid) {
    EXPECT_EQ(dlm.link_members(lid).size(), 5u);
    EXPECT_TRUE(dlm.is_bus(lid));
  }
}

TEST(Dlm, NeighborhoodLargerThanGrid) {
  // A key property: one bus hop reaches span-1 PEs per bus, so the DLM
  // neighborhood is much larger than the grid's 4.
  const DoubleLatticeMesh dlm(5, 10, 10);
  const Grid2D grid(10, 10, false);
  std::size_t min_deg = SIZE_MAX;
  for (NodeId n = 0; n < dlm.num_nodes(); ++n)
    min_deg = std::min(min_deg, dlm.neighbors(n).size());
  EXPECT_GT(min_deg, grid.max_degree());
}

TEST(Dlm, SpanEqualsDimensionDegeneratesToFullRowBuses) {
  const DoubleLatticeMesh dlm(5, 5, 5);
  // One bus per row + one per column (local lattice == skip lattice,
  // deduplicated): 10 buses.
  EXPECT_EQ(dlm.num_links(), 10u);
  EXPECT_EQ(DistanceMatrix(dlm).diameter(), 2u);
}

TEST(Dlm, RejectsBadParameters) {
  EXPECT_THROW(DoubleLatticeMesh(1, 5, 5), ConfigError);
  EXPECT_THROW(DoubleLatticeMesh(9, 5, 5), ConfigError);
}

// --------------------------------------------------------------------------
// Ring / Complete / base Topology
// --------------------------------------------------------------------------

TEST(Ring, StructureAndDiameter) {
  const Ring r(8);
  for (NodeId n = 0; n < 8; ++n) EXPECT_EQ(r.neighbors(n).size(), 2u);
  EXPECT_EQ(DistanceMatrix(r).diameter(), 4u);
}

TEST(Complete, DiameterOne) {
  const Complete c(6);
  EXPECT_EQ(c.num_links(), 15u);
  EXPECT_EQ(DistanceMatrix(c).diameter(), 1u);
}

TEST(Topology, LinkBetweenFindsSharedLink) {
  const Grid2D g(3, 3, false);
  EXPECT_NE(g.link_between(0, 1), kInvalidLink);
  EXPECT_EQ(g.link_between(0, 8), kInvalidLink);
}

TEST(Topology, LinkBetweenIsLowestSharedLink) {
  // Against brute force over links_of x link_members, for every adjacent
  // pair. The DLM joins some pairs by a local and a skip bus, others by
  // one bus; the torus's 2-wide dimension has no wrap links, its 5-wide
  // one has them.
  const DoubleLatticeMesh dlm(3, 6, 6);
  const Grid2D torus(2, 5, /*wrap=*/true);
  for (const Topology* topo : {static_cast<const Topology*>(&dlm),
                               static_cast<const Topology*>(&torus)}) {
    for (NodeId a = 0; a < topo->num_nodes(); ++a) {
      for (const NodeId b : topo->neighbors(a)) {
        LinkId lowest = kInvalidLink;
        for (const LinkId lid : topo->links_of(a)) {
          const auto members = topo->link_members(lid);
          if (std::find(members.begin(), members.end(), b) != members.end())
            lowest = std::min(lowest, lid);
        }
        ASSERT_NE(lowest, kInvalidLink) << topo->name() << " " << a << "-" << b;
        EXPECT_EQ(topo->link_between(a, b), lowest)
            << topo->name() << " " << a << "-" << b;
      }
      EXPECT_EQ(topo->link_between(a, a), kInvalidLink);
    }
  }
}

TEST(Topology, CsrRowsAgreeWithLinkMembers) {
  // neighbors(n) is exactly the union of n's links' members minus n, and
  // neighbor_offset() lays the rows end to end.
  const DoubleLatticeMesh dlm(4, 8, 8);
  std::size_t offset = 0;
  for (NodeId n = 0; n < dlm.num_nodes(); ++n) {
    std::vector<NodeId> expected;
    for (const LinkId lid : dlm.links_of(n))
      for (const NodeId m : dlm.link_members(lid))
        if (m != n) expected.push_back(m);
    std::sort(expected.begin(), expected.end());
    expected.erase(std::unique(expected.begin(), expected.end()),
                   expected.end());
    const auto row = dlm.neighbors(n);
    EXPECT_EQ(std::vector<NodeId>(row.begin(), row.end()), expected);
    EXPECT_EQ(dlm.neighbor_offset(n), offset);
    offset += row.size();
  }
  EXPECT_EQ(dlm.num_neighbor_entries(), offset);
}

TEST(Topology, AreNeighborsConsistentWithLinks) {
  const DoubleLatticeMesh dlm(4, 8, 8);
  for (NodeId a = 0; a < dlm.num_nodes(); a += 3) {
    for (NodeId b = 0; b < dlm.num_nodes(); b += 5) {
      const bool adj = dlm.are_neighbors(a, b);
      EXPECT_EQ(adj, a != b && dlm.link_between(a, b) != kInvalidLink);
    }
  }
}

// --------------------------------------------------------------------------
// Factory
// --------------------------------------------------------------------------

TEST(TopoFactory, ParsesAllKinds) {
  EXPECT_EQ(make_topology("grid:3x4")->num_nodes(), 12u);
  EXPECT_EQ(make_topology("torus:4x4")->num_nodes(), 16u);
  EXPECT_EQ(make_topology("dlm:5:10x10")->num_nodes(), 100u);
  EXPECT_EQ(make_topology("hypercube:5")->num_nodes(), 32u);
  EXPECT_EQ(make_topology("ring:9")->num_nodes(), 9u);
  EXPECT_EQ(make_topology("complete:7")->num_nodes(), 7u);
}

TEST(TopoFactory, TrimsAndLowercases) {
  EXPECT_EQ(make_topology("  GRID:2x2 ")->num_nodes(), 4u);
}

TEST(TopoFactory, RejectsMalformedSpecs) {
  EXPECT_THROW(make_topology(""), ConfigError);
  EXPECT_THROW(make_topology("grid"), ConfigError);
  EXPECT_THROW(make_topology("grid:3"), ConfigError);
  EXPECT_THROW(make_topology("grid:0x4"), ConfigError);
  EXPECT_THROW(make_topology("dlm:10x10"), ConfigError);
  EXPECT_THROW(make_topology("mesh:3x3"), ConfigError);
  EXPECT_THROW(make_topology("hypercube:25"), ConfigError);
}

// --------------------------------------------------------------------------
// Property suite over families (parameterized)
// --------------------------------------------------------------------------

class TopologyProperties : public ::testing::TestWithParam<const char*> {};

TEST_P(TopologyProperties, ConnectedSymmetricSimple) {
  const auto topo = make_topology(GetParam());
  EXPECT_TRUE(is_connected(*topo));
  for (NodeId a = 0; a < topo->num_nodes(); ++a) {
    const auto& adj = topo->neighbors(a);
    for (std::size_t i = 0; i < adj.size(); ++i) {
      if (i) {
        ASSERT_LT(adj[i - 1], adj[i]);  // sorted, no duplicates
      }
      ASSERT_NE(adj[i], a);  // no self loops
      // Symmetry.
      ASSERT_TRUE(topo->are_neighbors(adj[i], a));
    }
  }
}

TEST_P(TopologyProperties, DistanceMatrixIsAMetric) {
  const auto topo = make_topology(GetParam());
  const DistanceMatrix dm(*topo);
  const NodeId n = topo->num_nodes();
  const NodeId step = std::max<NodeId>(1, n / 12);
  for (NodeId a = 0; a < n; a += step) {
    EXPECT_EQ(dm.distance(a, a), 0u);
    for (NodeId b = 0; b < n; b += step) {
      ASSERT_EQ(dm.distance(a, b), dm.distance(b, a));
      for (NodeId c = 0; c < n; c += step)
        ASSERT_LE(dm.distance(a, c), dm.distance(a, b) + dm.distance(b, c));
    }
  }
  EXPECT_GE(dm.average_distance(), n > 1 ? 1.0 : 0.0);
  EXPECT_LE(dm.average_distance(), static_cast<double>(dm.diameter()));
}

TEST_P(TopologyProperties, RoutingTableFollowsShortestPaths) {
  const auto topo = make_topology(GetParam());
  const DistanceMatrix dm(*topo);
  const RoutingTable routes(*topo);
  const NodeId n = topo->num_nodes();
  const NodeId step = std::max<NodeId>(1, n / 20);
  for (NodeId from = 0; from < n; from += step) {
    for (NodeId to = 0; to < n; to += step) {
      if (from == to) continue;
      // Walking next hops reaches `to` in exactly distance(from, to) hops.
      NodeId cur = from;
      std::uint32_t hops = 0;
      while (cur != to) {
        const NodeId next = routes.next_hop(cur, to);
        ASSERT_TRUE(topo->are_neighbors(cur, next));
        ASSERT_EQ(dm.distance(next, to) + 1, dm.distance(cur, to));
        cur = next;
        ASSERT_LE(++hops, dm.diameter());
      }
      ASSERT_EQ(hops, dm.distance(from, to));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllFamilies, TopologyProperties,
                         ::testing::Values("grid:5x5", "grid:4x7", "torus:5x5",
                                           "torus:3x8", "dlm:5:5x5",
                                           "dlm:4:8x8", "dlm:5:10x10",
                                           "dlm:3:6x9", "hypercube:3",
                                           "hypercube:6", "ring:10",
                                           "complete:8"));

}  // namespace
}  // namespace oracle::topo
