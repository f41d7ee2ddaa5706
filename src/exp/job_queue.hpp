#pragma once
// JobQueue: the unit of work the batch engine executes. Built from a list
// of ExperimentConfigs (typically core::SweepBuilder::build()), it assigns
// stable indices, computes content hashes, optionally derives independent
// per-job seeds from one master seed, and hands jobs to executor workers
// one at a time through a thread-safe claim cursor.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <unordered_set>
#include <vector>

#include "exp/job.hpp"

namespace oracle::exp {

class JobQueue {
 public:
  JobQueue() = default;

  /// Index, hash and enqueue every config in order.
  explicit JobQueue(const std::vector<core::ExperimentConfig>& configs);

  JobQueue(const JobQueue&) = delete;
  JobQueue& operator=(const JobQueue&) = delete;
  JobQueue(JobQueue&& other) noexcept;
  JobQueue& operator=(JobQueue&& other) noexcept;

  /// Overwrite every job's seed with an independent stream derived from
  /// `master` and the job's sweep index (Rng::derive_seed). Same sweep +
  /// same master ⇒ the same per-job seeds, regardless of job count or
  /// execution order. Content hashes are recomputed.
  void derive_seeds(std::uint64_t master);

  /// Drop jobs whose content hash is in `completed` (store resume).
  /// Surviving jobs keep their original sweep indices. Returns the number
  /// of jobs removed. Resets the claim cursor.
  std::size_t skip_completed(const std::unordered_set<std::uint64_t>& completed);

  /// A new queue holding copies of the jobs whose *sweep index* lies in
  /// [begin, end), with the seeds and content hashes this queue already
  /// computed — the work-stealing lease rule and the service's chunk
  /// window. A lease is a contiguous slice of the job order, so the lease
  /// service can shrink it (steal its tail) while a worker runs: jobs
  /// already committed keep their identity and the stolen tail re-slices
  /// cleanly elsewhere. Copied jobs keep their sweep indices.
  JobQueue slice(std::size_t begin, std::size_t end) const;

  std::size_t size() const noexcept { return jobs_.size(); }
  bool empty() const noexcept { return jobs_.empty(); }
  const ExperimentJob& job(std::size_t pos) const { return jobs_[pos]; }
  const std::vector<ExperimentJob>& jobs() const noexcept { return jobs_; }

  /// Atomically claim the next queue position (one relaxed fetch_add).
  /// Returns nullopt once the queue is drained. Safe to call from any
  /// number of worker threads.
  std::optional<std::size_t> claim() noexcept;

  /// Rewind the claim cursor (e.g. to run the same queue again).
  void reset_cursor() noexcept { cursor_.store(0, std::memory_order_relaxed); }

 private:
  std::vector<ExperimentJob> jobs_;
  std::atomic<std::size_t> cursor_{0};
};

}  // namespace oracle::exp
