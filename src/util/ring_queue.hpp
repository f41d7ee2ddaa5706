#pragma once
// RingQueue: a growable circular-buffer FIFO with up-front capacity
// reservation. std::deque allocates a fresh block every few dozen elements
// and never gives one back mid-run; the simulator's per-PE ready queues
// instead reserve once at machine setup and then push/pop millions of
// times with zero allocation (capacity only grows on overflow, by
// doubling).
//
// Supports random access and middle erasure (both index-based) because load
// balancing occasionally extracts a transferable goal from the middle of a
// ready queue; erasure shifts the shorter side, so it is O(min(i, n-i)) —
// fine for the rare transfer, irrelevant to the hot push/pop path.

#include <cstddef>
#include <utility>
#include <vector>

#include "util/error.hpp"

namespace oracle::util {

template <typename T>
class RingQueue {
 public:
  RingQueue() = default;

  std::size_t size() const noexcept { return size_; }
  bool empty() const noexcept { return size_ == 0; }
  std::size_t capacity() const noexcept { return buf_.size(); }

  /// Ensure capacity for at least `n` elements without further allocation.
  void reserve(std::size_t n) {
    if (n > buf_.size()) regrow(ceil_pow2(n));
  }

  T& operator[](std::size_t i) {
    ORACLE_ASSERT(i < size_);
    return buf_[(head_ + i) & mask_];
  }
  const T& operator[](std::size_t i) const {
    ORACLE_ASSERT(i < size_);
    return buf_[(head_ + i) & mask_];
  }

  T& front() { return (*this)[0]; }
  T& back() { return (*this)[size_ - 1]; }

  void push_back(T value) {
    if (size_ == buf_.size())
      regrow(buf_.empty() ? kMinCapacity : buf_.size() * 2);
    buf_[(head_ + size_) & mask_] = std::move(value);
    ++size_;
  }

  T pop_front() {
    ORACLE_ASSERT(size_ > 0);
    T out = std::move(buf_[head_]);
    head_ = (head_ + 1) & mask_;
    --size_;
    return out;
  }

  /// Remove the element at logical index `i`, preserving the order of the
  /// rest. Shifts whichever side of `i` is shorter; works identically when
  /// the live range wraps around the end of the buffer, because every slot
  /// access goes through the masked logical indexing of operator[].
  /// The vacated physical slot is reset to T{} so resource-holding payloads
  /// (pooled pointers, handles) do not linger behind head_ / past the tail.
  void erase_at(std::size_t i) {
    ORACLE_ASSERT(i < size_);
    if (i == 0) {
      // Front: drop in place — no element moves at all.
      buf_[head_] = T{};
      head_ = (head_ + 1) & mask_;
      --size_;
      return;
    }
    if (i == size_ - 1) {
      // Back: drop in place.
      buf_[(head_ + i) & mask_] = T{};
      --size_;
      return;
    }
    if (i < size_ - i - 1) {
      // Left side shorter: shift [0, i) right by one, then advance head_.
      // Each assignment targets a slot whose value has already been moved
      // out (or is about to be vacated), so the moved-from state is only
      // ever overwritten, never read.
      for (std::size_t j = i; j > 0; --j)
        (*this)[j] = std::move((*this)[j - 1]);
      buf_[head_] = T{};
      head_ = (head_ + 1) & mask_;
    } else {
      // Right side shorter: shift (i, size_) left by one.
      for (std::size_t j = i; j + 1 < size_; ++j)
        (*this)[j] = std::move((*this)[j + 1]);
      buf_[(head_ + size_ - 1) & mask_] = T{};
    }
    --size_;
  }

  void clear() noexcept {
    head_ = 0;
    size_ = 0;
  }

 private:
  // First allocation of a queue that was never reserved. The simulator
  // reserves every queue it builds, so this only sizes ad-hoc queues;
  // small keeps an idle one cheap.
  static constexpr std::size_t kMinCapacity = 2;

  static std::size_t ceil_pow2(std::size_t n) {
    std::size_t p = kMinCapacity;
    while (p < n) p *= 2;
    return p;
  }

  void regrow(std::size_t cap) {
    std::vector<T> next(cap);
    for (std::size_t i = 0; i < size_; ++i)
      next[i] = std::move(buf_[(head_ + i) & mask_]);
    buf_ = std::move(next);
    head_ = 0;
    mask_ = buf_.size() - 1;
  }

  std::vector<T> buf_;
  std::size_t head_ = 0;   // index of the logical front
  std::size_t size_ = 0;
  std::size_t mask_ = 0;   // buf_.size() - 1 (capacity is a power of two)
};

}  // namespace oracle::util
