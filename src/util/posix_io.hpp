#pragma once
// EINTR-safe POSIX I/O wrappers. Every blocking syscall in the durability
// and network paths goes through these, so signal delivery (SIGCHLD from
// the sweep supervisor, profiler timers, ...) can never surface as a
// short write, a lost fsync, or a spuriously failed poll.

#include <cstddef>
#include <cstdint>

struct pollfd;

namespace oracle::util {

/// Read exactly `n` bytes unless EOF intervenes, retrying on EINTR and
/// continuing across short reads. Returns the byte count actually read
/// (== n, or less on EOF), or -1 on error (errno preserved).
std::ptrdiff_t read_full(int fd, void* buf, std::size_t n) noexcept;

/// read_full at a fixed file offset (pread): keeps no seek state, so any
/// number of threads may read one fd at once.
std::ptrdiff_t pread_full(int fd, void* buf, std::size_t n,
                          std::uint64_t offset) noexcept;

/// Write all `n` bytes, retrying on EINTR and continuing across short
/// writes (a signal mid-write otherwise silently truncates the record).
/// Returns false on a real write error (errno preserved).
bool write_full(int fd, const void* buf, std::size_t n) noexcept;

/// fsync, retrying on EINTR. Returns false on a real fsync failure
/// (callers in the store paths treat that as best-effort, matching
/// util::fsync_path).
bool fsync_retry(int fd) noexcept;

/// poll(2) that re-arms the *remaining* timeout after EINTR, so a signal
/// storm cannot stretch a deadline indefinitely. timeout_ms < 0 blocks
/// forever. Returns poll's result (>0 ready, 0 timeout, -1 real error).
int poll_retry(struct pollfd* fds, std::size_t nfds, int timeout_ms) noexcept;

}  // namespace oracle::util
