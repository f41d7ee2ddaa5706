#pragma once
// Runner: execute a batch of independent experiments in parallel across a
// thread pool (the paper ran its 240 simulations serially on a VAX-750;
// we run them concurrently, one Machine per task).

#include <cstddef>
#include <vector>

#include "core/config.hpp"
#include "exp/shard.hpp"
#include "stats/run_result.hpp"

namespace oracle::core {

/// Run all configs, preserving order. `threads` = 0 uses all hardware
/// threads. Exceptions from individual runs propagate (first one wins).
std::vector<stats::RunResult> run_all(const std::vector<ExperimentConfig>& configs,
                                      std::size_t threads = 0);

/// Build every distinct topology named by `configs` into the shared
/// topology cache (topo::prewarm_topology_cache; distinct specs build in
/// parallel). Called by run_all and the batch engine before fanning out
/// workers.
void prewarm_topologies(const std::vector<ExperimentConfig>& configs);

/// Run the configs as a crash-safe multi-process batch: supervised lease
/// workers (heartbeat monitoring, auto-restart, work stealing through the
/// lease service) whose per-worker stores merge into the canonical store
/// in job order, byte-identical to a serial run. Thin forward to
/// exp::run_sharded_processes; see exp/shard.hpp for the protocol.
exp::ShardRunReport run_sharded(const std::vector<ExperimentConfig>& configs,
                                const exp::ShardRunOptions& options);

}  // namespace oracle::core
