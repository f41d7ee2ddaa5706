#pragma once
// Umbrella header for the ORACLE load-distribution library — a C++20
// reproduction of the simulation system behind L. V. Kale, "Comparing the
// Performance of Two Dynamic Load Distribution Methods" (ICPP 1988).
//
// Quickstart:
//   #include "oracle.hpp"
//   oracle::core::ExperimentConfig cfg;
//   cfg.topology = "grid:10x10";
//   cfg.strategy = "cwn:radius=9,horizon=2";
//   cfg.workload = "fib:15";
//   auto result = oracle::core::run_experiment(cfg);
//   std::cout << result.utilization_percent() << "%\n";

#include "core/config.hpp"
#include "core/presets.hpp"
#include "core/simulator.hpp"
#include "core/sweep.hpp"
#include "exp/exp.hpp"
#include "lb/acwn.hpp"
#include "lb/baselines.hpp"
#include "lb/cwn.hpp"
#include "lb/gradient.hpp"
#include "lb/strategy.hpp"
#include "machine/machine.hpp"
#include "obs/json_lint.hpp"
#include "obs/status.hpp"
#include "obs/trace.hpp"
#include "stats/run_result.hpp"
#include "util/log.hpp"
#include "topo/dlm.hpp"
#include "topo/factory.hpp"
#include "topo/graph_algos.hpp"
#include "topo/grid.hpp"
#include "topo/hypercube.hpp"
#include "util/string_util.hpp"
#include "util/table.hpp"
#include "workload/dc.hpp"
#include "workload/fib.hpp"
#include "workload/synthetic.hpp"
#include "workload/workload.hpp"
