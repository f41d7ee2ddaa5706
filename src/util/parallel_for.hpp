#pragma once
// parallel_for: fan independent work items out over short-lived threads.

#include <cstddef>
#include <functional>

namespace oracle {

/// Run fn(i) for every i in [0, n) on min(n, threads) new threads
/// (threads == 0: hardware concurrency, at least 1), each claiming the
/// next unclaimed index until none is left, and wait for them. Every
/// index runs even after one throws; the first exception is rethrown once
/// every thread has joined.
void parallel_for(std::size_t n, std::size_t threads,
                  const std::function<void(std::size_t)>& fn);

}  // namespace oracle
