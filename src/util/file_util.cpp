#include "util/file_util.hpp"

#include <cerrno>
#include <cstdio>
#include <fstream>

#include "util/error.hpp"
#include "util/posix_io.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

namespace oracle::util {

bool fsync_path(const std::string& path) noexcept {
  const int fd = ::open(path.c_str(), O_WRONLY | O_APPEND | O_CLOEXEC);
  if (fd < 0) return false;
  const bool ok = fsync_retry(fd);  // EINTR must not drop the barrier
  const int saved = errno;
  ::close(fd);
  errno = saved;  // report the fsync's failure, not the close's
  return ok;
}

bool fsync_parent_dir(const std::string& path) noexcept {
  const auto slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos ? std::string(".")
                                                     : path.substr(0, slash + 1);
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (fd < 0) return false;
  const bool ok = fsync_retry(fd);
  ::close(fd);
  return ok;
}

bool file_exists(const std::string& path) noexcept {
  struct stat st{};
  return ::stat(path.c_str(), &st) == 0;
}

bool touch_file(const std::string& path) noexcept {
  const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_CLOEXEC, 0644);
  if (fd < 0) return false;
  // futimens(nullptr) sets both timestamps to now even when nothing was
  // written — cheaper than a write and never perturbs file contents.
  const bool ok = ::futimens(fd, nullptr) == 0;
  ::close(fd);
  return ok;
}

void atomic_replace(const std::string& tmp, const std::string& target) {
  fsync_path(tmp);
  if (std::rename(tmp.c_str(), target.c_str()) != 0)
    throw SimulationError("cannot rename '" + tmp + "' to '" + target + "'");
  fsync_parent_dir(target);
}

bool remove_file(const std::string& path) noexcept {
  return std::remove(path.c_str()) == 0;
}

void write_file_atomic(const std::string& path, const std::string& content) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::out | std::ios::trunc | std::ios::binary);
    if (!out) throw SimulationError("cannot open '" + tmp + "' for writing");
    out << content;
    out.flush();
    if (!out) throw SimulationError("write to '" + tmp + "' failed");
  }
  atomic_replace(tmp, path);
}

}  // namespace oracle::util
