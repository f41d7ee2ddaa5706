#include "util/posix_io.hpp"

#include <cerrno>

#include <poll.h>
#include <unistd.h>

#include <chrono>

namespace oracle::util {

std::ptrdiff_t read_full(int fd, void* buf, std::size_t n) noexcept {
  auto* p = static_cast<char*>(buf);
  std::size_t done = 0;
  while (done < n) {
    const ssize_t r = ::read(fd, p + done, n - done);
    if (r < 0) {
      if (errno == EINTR) continue;
      return -1;
    }
    if (r == 0) break;  // EOF
    done += static_cast<std::size_t>(r);
  }
  return static_cast<std::ptrdiff_t>(done);
}

std::ptrdiff_t pread_full(int fd, void* buf, std::size_t n,
                          std::uint64_t offset) noexcept {
  auto* p = static_cast<char*>(buf);
  std::size_t done = 0;
  while (done < n) {
    const ssize_t r = ::pread(fd, p + done, n - done,
                              static_cast<off_t>(offset + done));
    if (r < 0) {
      if (errno == EINTR) continue;
      return -1;
    }
    if (r == 0) break;  // EOF
    done += static_cast<std::size_t>(r);
  }
  return static_cast<std::ptrdiff_t>(done);
}

bool write_full(int fd, const void* buf, std::size_t n) noexcept {
  const auto* p = static_cast<const char*>(buf);
  std::size_t done = 0;
  while (done < n) {
    const ssize_t r = ::write(fd, p + done, n - done);
    if (r < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    done += static_cast<std::size_t>(r);
  }
  return true;
}

bool fsync_retry(int fd) noexcept {
  while (::fsync(fd) != 0) {
    if (errno != EINTR) return false;
  }
  return true;
}

int poll_retry(struct pollfd* fds, std::size_t nfds, int timeout_ms) noexcept {
  using Clock = std::chrono::steady_clock;
  const auto deadline =
      timeout_ms < 0 ? Clock::time_point::max()
                     : Clock::now() + std::chrono::milliseconds(timeout_ms);
  while (true) {
    int remaining = -1;
    if (timeout_ms >= 0) {
      const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                            deadline - Clock::now())
                            .count();
      remaining = left > 0 ? static_cast<int>(left) : 0;
    }
    const int r = ::poll(fds, static_cast<nfds_t>(nfds), remaining);
    if (r >= 0 || errno != EINTR) return r;
  }
}

}  // namespace oracle::util
