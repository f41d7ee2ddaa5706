#include "exp/job_queue.hpp"

#include <algorithm>
#include <utility>

#include "util/rng.hpp"

namespace oracle::exp {

JobQueue::JobQueue(const std::vector<core::ExperimentConfig>& configs,
                   std::uint64_t master_seed, std::size_t begin,
                   std::size_t end) {
  end = std::min(end, configs.size());
  begin = std::min(begin, end);
  jobs_.reserve(end - begin);
  for (std::size_t i = begin; i < end; ++i) {
    ExperimentJob job;
    job.index = i;
    job.config = configs[i];
    if (master_seed != 0)
      job.config.machine.seed = Rng::derive_seed(master_seed, i);
    job.content_hash = job_content_hash(job.config);
    jobs_.push_back(std::move(job));
  }
}

JobQueue::JobQueue(JobQueue&& other) noexcept
    : jobs_(std::move(other.jobs_)),
      cursor_(other.cursor_.load(std::memory_order_relaxed)) {}

JobQueue& JobQueue::operator=(JobQueue&& other) noexcept {
  jobs_ = std::move(other.jobs_);
  cursor_.store(other.cursor_.load(std::memory_order_relaxed),
                std::memory_order_relaxed);
  return *this;
}

JobQueue JobQueue::slice(std::size_t begin, std::size_t end) const {
  // Jobs stay in ascending sweep-index order (construction numbers them
  // in order; skip_completed and slice only drop jobs), so the window is
  // one contiguous run.
  const auto by_index = [](const ExperimentJob& job, std::size_t index) {
    return job.index < index;
  };
  const auto first =
      std::lower_bound(jobs_.begin(), jobs_.end(), begin, by_index);
  const auto last = std::lower_bound(first, jobs_.end(), end, by_index);
  JobQueue out;
  out.jobs_.assign(first, last);
  return out;
}

std::optional<std::size_t> JobQueue::claim() noexcept {
  const std::size_t pos = cursor_.fetch_add(1, std::memory_order_relaxed);
  if (pos >= jobs_.size()) return std::nullopt;
  return pos;
}

}  // namespace oracle::exp
