// Explore the structural properties of any supported topology: degrees,
// diameter, average distance, link inventory, and a distance histogram.
// These are the quantities Section 3's topology discussion rests on.
//
//   ./topology_explorer [spec ...]
//   e.g. ./topology_explorer dlm:5:10x10 grid:10x10 hypercube:7

#include <cstdio>
#include <string>
#include <vector>

#include "oracle.hpp"

int main(int argc, char** argv) {
  using namespace oracle;

  std::vector<std::string> specs;
  for (int i = 1; i < argc; ++i) specs.push_back(argv[i]);
  if (specs.empty())
    specs = {"grid:10x10", "torus:10x10", "dlm:5:10x10", "hypercube:7",
             "ring:16", "complete:16"};

  for (const auto& spec : specs) {
    const auto topo = topo::make_topology(spec);
    const topo::DistanceMatrix dm(*topo);

    std::size_t min_deg = SIZE_MAX, p2p = 0, buses = 0;
    for (topo::NodeId n = 0; n < topo->num_nodes(); ++n)
      min_deg = std::min(min_deg, topo->neighbors(n).size());
    for (topo::LinkId lid = 0; lid < topo->num_links(); ++lid)
      (topo->is_bus(lid) ? buses : p2p) += 1;

    std::printf("== %s ==\n", topo->name().c_str());
    std::printf("  nodes           %u\n", topo->num_nodes());
    std::printf("  links           %zu (%zu point-to-point, %zu buses)\n",
                topo->num_links(), p2p, buses);
    std::printf("  degree          min %zu, max %zu\n", min_deg,
                topo->max_degree());
    std::printf("  diameter        %u\n", dm.diameter());
    std::printf("  avg distance    %.2f\n", dm.average_distance());

    // Distance histogram from node 0 (radial reach of the network).
    stats::Histogram hist;
    const auto dists = topo::bfs_distances(*topo, 0);
    for (const auto d : dists) hist.add(d);
    std::printf("  reach from PE 0:");
    for (std::size_t d = 0; d < hist.buckets(); ++d)
      std::printf(" d%zu:%llu", d,
                  static_cast<unsigned long long>(hist.count(d)));
    std::printf("\n\n");
  }
  return 0;
}
