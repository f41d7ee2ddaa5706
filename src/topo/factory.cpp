#include "topo/factory.hpp"

#include <mutex>
#include <string>
#include <unordered_map>
#include <unordered_set>

#include "topo/dlm.hpp"
#include "topo/grid.hpp"
#include "topo/hypercube.hpp"
#include "topo/tree.hpp"
#include "util/parallel_for.hpp"
#include "util/string_util.hpp"

namespace oracle::topo {

Ring::Ring(std::uint32_t n) : Topology(strfmt("ring-%u", n), n) {
  ORACLE_REQUIRE(n >= 2, "ring needs at least 2 nodes");
  for (std::uint32_t i = 0; i + 1 < n; ++i) add_link({i, i + 1});
  if (n >= 3) add_link({n - 1, 0});
  finalize();
}

Complete::Complete(std::uint32_t n) : Topology(strfmt("complete-%u", n), n) {
  ORACLE_REQUIRE(n >= 2, "complete graph needs at least 2 nodes");
  for (std::uint32_t i = 0; i < n; ++i)
    for (std::uint32_t j = i + 1; j < n; ++j) add_link({i, j});
  finalize();
}

namespace {

std::pair<std::uint32_t, std::uint32_t> parse_dims(std::string_view s,
                                                   std::string_view what) {
  const auto parts = split(s, 'x');
  ORACLE_REQUIRE(parts.size() == 2,
                 std::string(what) + ": expected RxC, got '" + std::string(s) + "'");
  const auto r = parse_int(parts[0], what);
  const auto c = parse_int(parts[1], what);
  ORACLE_REQUIRE(r > 0 && c > 0, std::string(what) + ": dimensions must be positive");
  return {static_cast<std::uint32_t>(r), static_cast<std::uint32_t>(c)};
}

}  // namespace

std::unique_ptr<Topology> make_topology(std::string_view spec) {
  const auto parts = split(trim(spec), ':');
  ORACLE_REQUIRE(!parts.empty() && !parts[0].empty(),
                 "empty topology spec");
  const std::string kind = to_lower(parts[0]);

  if (kind == "grid" || kind == "torus") {
    ORACLE_REQUIRE(parts.size() == 2, "usage: " + kind + ":RxC");
    const auto [r, c] = parse_dims(parts[1], kind);
    return std::make_unique<Grid2D>(r, c, kind == "torus");
  }
  if (kind == "dlm") {
    ORACLE_REQUIRE(parts.size() == 3, "usage: dlm:SPAN:RxC");
    const auto span = parse_int(parts[1], "dlm span");
    ORACLE_REQUIRE(span >= 2, "dlm span must be >= 2");
    const auto [r, c] = parse_dims(parts[2], "dlm");
    return std::make_unique<DoubleLatticeMesh>(static_cast<std::uint32_t>(span), r, c);
  }
  if (kind == "hypercube" || kind == "cube") {
    ORACLE_REQUIRE(parts.size() == 2, "usage: hypercube:DIM");
    const auto d = parse_int(parts[1], "hypercube dimension");
    ORACLE_REQUIRE(d >= 1 && d <= 20, "hypercube dimension must be in [1,20]");
    return std::make_unique<Hypercube>(static_cast<std::uint32_t>(d));
  }
  if (kind == "tree") {
    ORACLE_REQUIRE(parts.size() == 3, "usage: tree:ARITY:LEVELS");
    const auto arity = parse_int(parts[1], "tree arity");
    const auto levels = parse_int(parts[2], "tree levels");
    ORACLE_REQUIRE(arity >= 1 && levels >= 1, "tree needs arity,levels >= 1");
    return std::make_unique<KaryTree>(static_cast<std::uint32_t>(arity),
                                      static_cast<std::uint32_t>(levels));
  }
  if (kind == "ring") {
    ORACLE_REQUIRE(parts.size() == 2, "usage: ring:N");
    return std::make_unique<Ring>(
        static_cast<std::uint32_t>(parse_int(parts[1], "ring size")));
  }
  if (kind == "complete") {
    ORACLE_REQUIRE(parts.size() == 2, "usage: complete:N");
    return std::make_unique<Complete>(
        static_cast<std::uint32_t>(parse_int(parts[1], "complete size")));
  }
  throw ConfigError("unknown topology kind '" + kind +
                    "' (expected grid|torus|dlm|hypercube|ring|complete)");
}

namespace {

// Process-wide shared-topology cache. Keyed by the canonicalized spec's
// content hash (the map still compares full spec strings, so a hash
// collision costs a rebuild, never a wrong topology). Bounded: topologies
// are a few hundred KB each with their routing tables, so an unbounded
// cache could pin real memory across many sweeps. On overflow, entries no
// longer referenced by any Machine are evicted first; only if every entry
// is still in use is the cache cleared outright.
struct SpecContentHash {
  std::size_t operator()(const std::string& s) const noexcept {
    return static_cast<std::size_t>(fnv1a64(s));
  }
};

constexpr std::size_t kTopologyCacheMax = 64;

std::mutex g_topo_cache_mutex;
std::unordered_map<std::string, SharedTopology, SpecContentHash>&
topo_cache() {
  static auto* cache =
      new std::unordered_map<std::string, SharedTopology, SpecContentHash>();
  return *cache;
}

}  // namespace

SharedTopology make_topology_shared(std::string_view spec) {
  // Key by the trimmed spec as written: lowercasing here would let a
  // malformed spelling (e.g. "grid:5X5", which make_topology rejects) hit
  // a warm cache and silently succeed. Distinct valid spellings caching
  // separately is harmless.
  const std::string key{trim(spec)};
  {
    std::lock_guard<std::mutex> lock(g_topo_cache_mutex);
    const auto it = topo_cache().find(key);
    if (it != topo_cache().end()) return it->second;
  }

  // Build outside the lock: concurrent first requests for *different*
  // topologies proceed in parallel; a duplicate concurrent build of the
  // same spec is harmless (both results are identical and immutable, the
  // second insert is dropped).
  SharedTopology built;
  built.topology = std::shared_ptr<const Topology>(make_topology(spec));
  if (built.topology->num_nodes() <= kExactRoutingMaxNodes) {
    built.routing = std::make_shared<const RoutingTable>(*built.topology);
    built.diameter = DistanceMatrix(*built.topology).diameter();
  } else {
    // Million-node machines: the O(n^2) table/matrix are unrepresentable,
    // so the topology must supply closed forms. Routing goes through
    // Topology::analytic_next_hop (Machine rejects families without one).
    const std::int64_t hint = built.topology->diameter_hint();
    ORACLE_REQUIRE(
        hint >= 0,
        strfmt("topology '%s' has %u nodes (> %u) but no closed-form "
               "diameter; families without analytic routing are capped at "
               "the exact-analysis size",
               built.topology->name().c_str(), built.topology->num_nodes(),
               kExactRoutingMaxNodes));
    built.diameter = static_cast<std::uint32_t>(hint);
  }

  std::lock_guard<std::mutex> lock(g_topo_cache_mutex);
  if (topo_cache().size() >= kTopologyCacheMax) {
    // Evict entries no live Machine references (the cache holds the only
    // shared_ptr); clear wholesale only if everything is still in use.
    for (auto it = topo_cache().begin(); it != topo_cache().end();) {
      if (it->second.topology.use_count() == 1) {
        it = topo_cache().erase(it);
      } else {
        ++it;
      }
    }
    if (topo_cache().size() >= kTopologyCacheMax) topo_cache().clear();
  }
  const auto [it, inserted] = topo_cache().emplace(key, built);
  return inserted ? built : it->second;
}

void prewarm_topology_cache(const std::vector<std::string>& specs) {
  std::vector<std::string> distinct;
  std::unordered_set<std::string> seen;
  for (const std::string& spec : specs)
    if (seen.insert(spec).second) distinct.push_back(spec);
  // Distinct specs build concurrently (the cache builds outside its lock);
  // the point of prewarming is only that *identical* specs build once
  // instead of once per racing worker.
  parallel_for(distinct.size(), 0, [&](std::size_t i) {
    try {
      (void)make_topology_shared(distinct[i]);
    } catch (...) {
      // A malformed spec fails the job that names it, with per-job
      // reporting; prewarming must not fail a whole batch early.
    }
  });
}

std::size_t topology_cache_size() {
  std::lock_guard<std::mutex> lock(g_topo_cache_mutex);
  return topo_cache().size();
}

void clear_topology_cache() {
  std::lock_guard<std::mutex> lock(g_topo_cache_mutex);
  topo_cache().clear();
}

}  // namespace oracle::topo
