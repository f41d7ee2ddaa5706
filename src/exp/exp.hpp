#pragma once
// Umbrella header for the batch experiment engine (src/exp/): parallel
// sweep execution with streaming JSONL/CSV result stores, content-hash
// resume from those stores, and a multi-seed aggregation/query
// layer over the stores (exp/aggregate.hpp).
//
// Quickstart:
//   auto configs = oracle::core::SweepBuilder(base)
//                      .topologies({"grid:10x10", "dlm:5:10x10"})
//                      .strategies({"cwn", "gm"})
//                      .seeds({1, 2, 3})
//                      .build();
//   oracle::exp::BatchOptions opt;
//   opt.jsonl_path = "results.jsonl";
//   opt.resume = true;  // safe on first run too: nothing to skip yet
//   auto outcome = oracle::exp::run_batch(configs, opt);

#include "exp/aggregate.hpp"
#include "exp/batch.hpp"
#include "exp/commands.hpp"
#include "exp/executor.hpp"
#include "exp/job.hpp"
#include "exp/job_queue.hpp"
#include "exp/lease_client.hpp"
#include "exp/lease_protocol.hpp"
#include "exp/lease_service.hpp"
#include "exp/lease_worker.hpp"
#include "exp/result_sink.hpp"
#include "exp/service.hpp"
#include "exp/service_protocol.hpp"
#include "exp/store_index.hpp"
#include "exp/supervisor.hpp"
