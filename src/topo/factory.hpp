#pragma once
// Topology factory: builds topologies from compact spec strings, the form
// used by ExperimentConfig and the command-line examples.
//
//   "grid:RxC"         open 2-D grid            e.g. grid:10x10
//   "torus:RxC"        wrap-around 2-D grid     e.g. torus:20x20
//   "dlm:S:RxC"        double lattice mesh      e.g. dlm:5:10x10
//   "hypercube:D"      binary hypercube         e.g. hypercube:7
//   "ring:N"           1-D ring                 e.g. ring:16
//   "complete:N"       fully connected N nodes  e.g. complete:8
//   "tree:K:L"         complete k-ary tree      e.g. tree:2:5

#include <cstddef>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "topo/graph_algos.hpp"
#include "topo/topology.hpp"

namespace oracle::topo {

/// Parse `spec` and build the topology; throws ConfigError on bad specs.
std::unique_ptr<Topology> make_topology(std::string_view spec);

/// An immutable topology bundled with its derived routing structures, ready
/// to be shared by any number of concurrent single-threaded Machines. All
/// three members are read-only after construction, so sharing is safe.
/// For machines beyond kExactRoutingMaxNodes, `routing` is null (the O(n^2)
/// table is unrepresentable) and the topology's analytic_next_hop /
/// diameter_hint closed forms stand in for it.
struct SharedTopology {
  std::shared_ptr<const Topology> topology;
  std::shared_ptr<const RoutingTable> routing;
  std::uint32_t diameter = 0;
};

/// Cached make_topology + RoutingTable + diameter: batch jobs whose configs
/// name the same topology spec (e.g. a 64-seed ensemble on one grid) get
/// one shared build instead of 64. Keyed by the content hash (fnv1a64) of
/// the canonicalized spec, the same identity scheme exp::Job uses for
/// configs. Thread-safe; the cache is process-wide and bounded (on
/// overflow, entries no live Machine references are evicted first).
SharedTopology make_topology_shared(std::string_view spec);

/// Build every distinct spec in `specs` into the shared cache (distinct
/// specs build in parallel, one thread each up to the hardware's
/// concurrency), swallowing malformed specs (the job naming one fails
/// later with per-job reporting). Batch runners call this before fanning
/// out workers so identical specs are built once instead of once per
/// racing worker.
void prewarm_topology_cache(const std::vector<std::string>& specs);

/// Entries currently held by the shared-topology cache (tests/diagnostics).
std::size_t topology_cache_size();

/// Drop every cached topology (entries still referenced by live Machines
/// stay alive through their shared_ptrs).
void clear_topology_cache();

/// A ring of N nodes (degenerate lattice; useful for tests and ablations).
class Ring : public Topology {
 public:
  explicit Ring(std::uint32_t n);
};

/// Complete graph on N nodes (an idealized "global communication" network;
/// the paper argues such networks are not scalable — we keep one as an
/// ablation baseline).
class Complete : public Topology {
 public:
  explicit Complete(std::uint32_t n);
};

}  // namespace oracle::topo
