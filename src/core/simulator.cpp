#include "core/simulator.hpp"

#include "lb/strategy.hpp"
#include "machine/machine.hpp"
#include "obs/trace.hpp"
#include "topo/factory.hpp"
#include "util/string_util.hpp"
#include "workload/workload.hpp"

namespace oracle::core {

std::string ExperimentConfig::label() const {
  return topology + " / " + strategy + " / " + workload;
}

stats::RunResult run_experiment(const ExperimentConfig& config) {
  // Topology + routing come from the process-wide shared cache: jobs in a
  // sweep that differ only in seed/strategy/workload reuse one immutable
  // build instead of re-running BFS per replication.
  const topo::SharedTopology topology =
      topo::make_topology_shared(config.topology);
  const auto workload = workload::make_workload(config.workload, config.costs);
  const auto strategy = lb::make_strategy(config.strategy);

  machine::Machine machine(topology, *workload, *strategy, config.machine);
  stats::RunResult result = machine.run();

  if (obs::Tracer::enabled()) {
    // Engine health counters, one sample per run. Sampled here (not stored
    // in RunResult) so the JSONL record layout — and its byte-identity
    // guarantee across worker counts — is untouched.
    const machine::Machine::EngineStats es = machine.engine_stats();
    obs::counter("engine", "engine.events", "value",
                 static_cast<std::int64_t>(es.sched.executed));
    obs::counter("engine", "engine.cancels", "value",
                 static_cast<std::int64_t>(es.sched.cancelled));
    obs::counter("engine", "engine.sched", "wheel",
                 static_cast<std::int64_t>(es.sched.wheel_scheduled), "heap",
                 static_cast<std::int64_t>(es.sched.heap_scheduled));
    obs::counter("engine", "engine.batches", "ticks",
                 static_cast<std::int64_t>(es.sched.tick_batches), "slides",
                 static_cast<std::int64_t>(es.sched.base_slides));
    obs::counter("engine", "engine.msg_pool_reused", "value",
                 static_cast<std::int64_t>(es.msg_pool_reused));
    // Link contention: transmissions that queued, and the waiter peak.
    obs::counter("engine", "engine.channel_waits", "waits",
                 static_cast<std::int64_t>(es.channel_waits), "peak",
                 static_cast<std::int64_t>(es.peak_waiters));
    if (es.shards > 1) {
      // Parallel-engine health: shard count + barrier windows, per-window
      // starvation, and the cross-partition traffic volume.
      obs::counter("engine", "engine.windows", "shards",
                   static_cast<std::int64_t>(es.shards), "windows",
                   static_cast<std::int64_t>(es.windows));
      obs::counter("engine", "engine.window_stalls", "value",
                   static_cast<std::int64_t>(es.window_stalls));
      obs::counter("engine", "engine.cross_messages", "value",
                   static_cast<std::int64_t>(es.cross_messages));
    }
  }

  // Static tree facts: fill from the workload so results are self-contained.
  const workload::TreeSummary summary = workload->summarize();
  result.critical_path = summary.critical_path;
  ORACLE_ASSERT_MSG(result.goals_executed == summary.total_goals,
                    "machine executed a different number of goals than the "
                    "workload tree contains");
  return result;
}

exp::BatchOutcome run_batch(const std::vector<ExperimentConfig>& configs,
                            const exp::BatchOptions& options) {
  return exp::run_batch(configs, options);
}

}  // namespace oracle::core
