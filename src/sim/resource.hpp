#pragma once
// SIMSCRIPT-style resource: a facility with `capacity` identical servers and
// a FIFO request queue. ORACLE models each communication channel as one such
// process; we use Resource for channels and buses, so contention for links
// is simulated exactly as in the paper ("it models contention for the basic
// resources of a parallel system").

#include <cstdint>

#include "sim/scheduler.hpp"
#include "sim/time.hpp"
#include "stats/accumulator.hpp"
#include "util/inline_function.hpp"
#include "util/ring_queue.hpp"

namespace oracle::sim {

/// FIFO multi-server resource. Usage pattern:
///   resource.acquire_for(service_time, [done] { ... });
/// which queues if all servers are busy, holds a server for `service_time`
/// units, then invokes the completion callback and starts the next waiter.
class Resource {
 public:
  /// Completion callbacks are inline and move-only, capped at 16 bytes of
  /// capture (an object pointer plus two 32-bit indices) so a whole
  /// in-service record (this + service + callback) still fits one 48-byte
  /// scheduler event. Pass pool indices, not payloads.
  using Callback = util::InlineFunction<void(), 16>;

  explicit Resource(Scheduler& sched, std::uint32_t capacity = 1);

  /// Movable only while idle (nothing in service or queued): in-service
  /// events refer to the resource by address. This lets an owner build
  /// many resources into one contiguous array before the run.
  Resource(Resource&& other) noexcept;
  Resource(const Resource&) = delete;
  Resource& operator=(const Resource&) = delete;
  Resource& operator=(Resource&&) = delete;

  std::uint32_t capacity() const noexcept { return capacity_; }
  std::uint32_t in_service() const noexcept { return in_service_; }
  std::size_t queue_length() const noexcept { return queue_.size(); }

  /// Request a server for `service` units; `on_complete` runs when service
  /// finishes (may be null). FIFO among waiters.
  void acquire_for(Duration service, Callback on_complete);

  /// Pre-size the wait queue so steady-state queueing never allocates.
  void reserve(std::size_t waiters) { queue_.reserve(waiters); }

  /// Total busy server-time accumulated so far (updated on completion).
  Duration busy_time() const noexcept { return busy_time_; }

  /// Number of completed services.
  std::uint64_t completed() const noexcept { return completed_; }

  /// Utilization over [0, horizon]: busy server-time / (capacity * horizon).
  double utilization(SimTime horizon) const noexcept;

  /// Observed queueing delays (time from request to service start).
  const stats::Accumulator& queue_delay() const noexcept { return queue_delay_; }

 private:
  struct Request {
    Duration service = 0;
    Callback on_complete;
    SimTime enqueued_at = 0;
  };

  void start_service(Request req);
  void finish_service(Duration service, Callback on_complete);

  Scheduler* sched_;
  std::uint32_t capacity_;
  std::uint32_t in_service_ = 0;
  util::RingQueue<Request> queue_;
  Duration busy_time_ = 0;
  std::uint64_t completed_ = 0;
  stats::Accumulator queue_delay_;
};

}  // namespace oracle::sim
