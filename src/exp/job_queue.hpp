#pragma once
// JobQueue: the unit of work the batch engine executes. Built from a list
// of ExperimentConfigs (typically core::SweepBuilder::build()), or a
// window of it, it assigns stable sweep indices, optionally derives
// independent per-job seeds from one master seed, computes content hashes,
// and hands jobs to executor workers one at a time through a thread-safe
// claim cursor.

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

  /// Index, seed, hash and enqueue configs[begin, end) in order (the
  /// window is clamped to the list), numbered from `begin`: a window holds
  /// exactly the jobs the whole sweep's queue holds at those indices. A
  /// nonzero `master_seed` overwrites each job's seed with an independent
  /// stream derived from the master and the job's sweep index
  /// (Rng::derive_seed), so the same sweep and master give the same
  /// per-job seeds whatever the window, job count or execution order.
  explicit JobQueue(const std::vector<core::ExperimentConfig>& configs,
                    std::uint64_t master_seed = 0, std::size_t begin = 0,
                    std::size_t end = SIZE_MAX);

  JobQueue(const JobQueue&) = delete;
  JobQueue& operator=(const JobQueue&) = delete;
  JobQueue(JobQueue&& other) noexcept;
  JobQueue& operator=(JobQueue&& other) noexcept;

  /// Drop jobs whose content hash `completed` contains (a hash set, or an
  /// exp::StoreIndex over the stores). Surviving jobs keep their original
  /// sweep indices. Returns the number of jobs removed. Resets the claim
  /// cursor.
  template <class HashSet = std::unordered_set<std::uint64_t>>
  std::size_t skip_completed(const HashSet& completed) {
    const std::size_t before = jobs_.size();
    std::erase_if(jobs_, [&](const ExperimentJob& job) {
      return completed.contains(job.content_hash);
    });
    reset_cursor();
    return before - jobs_.size();
  }

  /// A new queue holding copies of the jobs whose *sweep index* lies in
  /// [begin, end), with the seeds and content hashes this queue already
  /// computed — the service's chunk window over a planned query. Copied
  /// jobs keep their sweep indices.
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
