#include "sim/resource.hpp"

#include <utility>

namespace oracle::sim {

Resource::Resource(Scheduler& sched, std::uint32_t capacity)
    : sched_(&sched), capacity_(capacity) {
  ORACLE_ASSERT_MSG(capacity_ > 0, "resource capacity must be positive");
}

Resource::Resource(Resource&& other) noexcept
    : sched_(other.sched_),
      capacity_(other.capacity_),
      busy_time_(other.busy_time_),
      completed_(other.completed_),
      queue_delay_(other.queue_delay_) {
  ORACLE_ASSERT_MSG(other.in_service_ == 0 && other.queue_.empty(),
                    "a resource may only be moved while idle");
  queue_ = std::move(other.queue_);
}

void Resource::acquire_for(Duration service, Callback on_complete) {
  ORACLE_ASSERT_MSG(service >= 0, "negative service time");
  Request req{service, std::move(on_complete), sched_->now()};
  if (in_service_ < capacity_) {
    start_service(std::move(req));
  } else {
    queue_.push_back(std::move(req));
  }
}

void Resource::start_service(Request req) {
  ++in_service_;
  queue_delay_.add(static_cast<double>(sched_->now() - req.enqueued_at));
  const Duration service = req.service;
  // Move the callback into the event; `this` outlives the scheduler run.
  sched_->schedule_after(service,
                        [this, service, cb = std::move(req.on_complete)]() mutable {
                          finish_service(service, std::move(cb));
                        });
}

void Resource::finish_service(Duration service, Callback on_complete) {
  ORACLE_ASSERT(in_service_ > 0);
  --in_service_;
  busy_time_ += service;
  ++completed_;
  if (!queue_.empty() && in_service_ < capacity_) {
    start_service(queue_.pop_front());
  }
  if (on_complete) on_complete();
}

double Resource::utilization(SimTime horizon) const noexcept {
  if (horizon <= 0) return 0.0;
  return static_cast<double>(busy_time_) /
         (static_cast<double>(capacity_) * static_cast<double>(horizon));
}

}  // namespace oracle::sim
