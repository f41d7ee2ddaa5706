// Figure 1 of the paper: "A 10x10 Double Lattice Mesh with bus-span = 5".
// This bench prints the structural properties of the reconstructed DLM
// family next to the grids, verifying the topology-level facts the paper's
// argument rests on: DLM diameters of 4-5 versus 8-38 for the grids, and
// the much larger single-hop neighborhood of the bus design.

#include "bench_common.hpp"
#include "topo/factory.hpp"
#include "topo/graph_algos.hpp"

using namespace oracle;
using namespace oracle::bench;

int main() {
  print_header("Figure 1 — Double Lattice Mesh structure",
               "reconstructed wiring: two bus lattices per dimension "
               "(local segments + strided skips)");

  // One CWN fib(13) run per topology, executed as a single engine batch
  // (shared topology cache + parallel shards), so the structural table can
  // show the utilization consequence of each wiring next to its facts.
  std::vector<ExperimentConfig> configs;
  for (const auto& size : core::paper::size_points()) {
    for (const Family family : {Family::Grid, Family::Dlm}) {
      ExperimentConfig cfg = core::paper::base_config();
      cfg.topology = family == Family::Grid ? size.grid_spec : size.dlm_spec;
      cfg.strategy = core::paper::cwn_spec(family);
      cfg.workload = "fib:13";
      configs.push_back(cfg);
    }
  }
  const auto results = run_ensemble(configs);

  TextTable t({"topology", "PEs", "links", "min deg", "max deg", "diameter",
               "avg distance", "CWN fib(13) util %"});
  std::size_t row = 0;
  for (const auto& size : core::paper::size_points()) {
    for (const std::string& spec : {size.grid_spec, size.dlm_spec}) {
      const auto topo = topo::make_topology(spec);
      const topo::DistanceMatrix dm(*topo);
      std::size_t min_deg = SIZE_MAX;
      for (topo::NodeId n = 0; n < topo->num_nodes(); ++n)
        min_deg = std::min(min_deg, topo->neighbors(n).size());
      t.add_row({topo->name(), std::to_string(topo->num_nodes()),
                 std::to_string(topo->num_links()), std::to_string(min_deg),
                 std::to_string(topo->max_degree()),
                 std::to_string(dm.diameter()), fixed(dm.average_distance(), 2),
                 fixed(results[row++].utilization_percent(), 1)});
    }
    t.add_rule();
  }
  std::printf("%s\n", t.to_string().c_str());
  std::printf("paper reference: DLM diameters 4-5; grid diameters 8..38.\n\n");

  // Bus membership detail for the Figure-1 instance.
  const auto dlm = topo::make_topology("dlm:5:10x10");
  std::printf("dlm:5:10x10 bus inventory: %zu buses, every node on 4 buses, "
              "5 taps per bus.\nFirst row's buses (node ids):\n",
              dlm->num_links());
  int shown = 0;
  for (topo::LinkId lid = 0; lid < dlm->num_links(); ++lid) {
    const auto link = dlm->link_members(lid);
    bool in_row0 = true;
    for (const auto m : link)
      if (m >= 10) in_row0 = false;
    if (!in_row0) continue;
    std::string members;
    for (const auto m : link) members += strfmt(" %u", m);
    std::printf("  bus %u: {%s }\n", lid, members.c_str());
    if (++shown >= 6) break;
  }
  return 0;
}
