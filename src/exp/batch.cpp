#include "exp/batch.hpp"

#include <memory>
#include <string>
#include <unordered_set>
#include <vector>

#include "topo/factory.hpp"

namespace oracle::exp {

BatchOutcome run_batch(const std::vector<core::ExperimentConfig>& configs,
                       const BatchOptions& options) {
  JobQueue queue(configs, options.master_seed);
  const std::size_t planned = queue.size();

  std::size_t skipped = 0;
  if (options.resume) {
    std::unordered_set<std::uint64_t> done;
    if (!options.jsonl_path.empty())
      done.merge(load_completed_hashes(options.jsonl_path));
    if (!options.csv_path.empty())
      done.merge(load_completed_hashes_csv(options.csv_path));
    skipped = queue.skip_completed(done);
  }

  BatchOutcome outcome = run_batch(queue, options);
  outcome.report.total_jobs = planned;
  outcome.report.skipped = skipped;
  return outcome;
}

BatchOutcome run_batch(JobQueue& queue, const BatchOptions& options) {
  TeeSink tee;
  std::unique_ptr<JsonlSink> jsonl_file;
  std::unique_ptr<JsonlSink> jsonl_stream;
  std::unique_ptr<CsvSink> csv_file;
  MemorySink memory;
  if (!options.jsonl_path.empty()) {
    jsonl_file =
        std::make_unique<JsonlSink>(options.jsonl_path, options.resume);
    tee.add(*jsonl_file);
  }
  if (options.jsonl_stream) {
    jsonl_stream = std::make_unique<JsonlSink>(*options.jsonl_stream);
    tee.add(*jsonl_stream);
  }
  if (!options.csv_path.empty()) {
    csv_file = std::make_unique<CsvSink>(options.csv_path, options.resume);
    tee.add(*csv_file);
  }
  if (options.collect) tee.add(memory);

  // Pre-build each distinct topology remaining in the queue into the
  // shared cache, so workers hit warm routing tables instead of racing to
  // build the same ones (a 64-seed ensemble builds each topology once).
  {
    std::vector<std::string> specs;
    specs.reserve(queue.size());
    for (std::size_t pos = 0; pos < queue.size(); ++pos)
      specs.push_back(queue.job(pos).config.topology);
    topo::prewarm_topology_cache(specs);
  }

  Executor executor(options.exec);
  BatchOutcome outcome;
  outcome.report = executor.run(queue, tee);
  if (options.collect) outcome.results = memory.results();
  return outcome;
}

}  // namespace oracle::exp
