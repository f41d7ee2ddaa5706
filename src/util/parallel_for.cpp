#include "util/parallel_for.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

namespace oracle {

void parallel_for(std::size_t n, std::size_t threads,
                  const std::function<void(std::size_t)>& fn) {
  if (threads == 0) threads = std::max(1u, std::thread::hardware_concurrency());
  threads = std::min(threads, n);
  std::atomic<std::size_t> next{0};
  std::exception_ptr first_error;
  std::mutex error_mutex;
  {
    std::vector<std::jthread> pool;  // joins every thread on scope exit
    pool.reserve(threads);
    for (std::size_t t = 0; t < threads; ++t)
      pool.emplace_back([&] {
        while (true) {
          const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
          if (i >= n) return;
          try {
            fn(i);
          } catch (...) {
            std::lock_guard<std::mutex> lock(error_mutex);
            if (!first_error) first_error = std::current_exception();
          }
        }
      });
  }
  if (first_error) std::rethrow_exception(first_error);
}

}  // namespace oracle
