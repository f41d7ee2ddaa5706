#include "exp/store_index.hpp"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cstring>
#include <string_view>

#include "exp/job.hpp"
#include "util/posix_io.hpp"

namespace oracle::exp {

namespace {

/// Store suffixes below this size are read with one pread; above it the
/// scan goes through a read-only mmap window.
constexpr std::uint64_t kMmapThreshold = 4u << 20;

/// Extract the content hash from one raw JSONL record line without paying
/// for a full record parse: the writer (exp::jsonl_record) always emits
/// `"hash":"<16 lower hex>"`. Only a line that begins with '{' and ends
/// with '}' counts — the first test parse_jsonl_record applies — so a torn
/// record whose hash survived, newline-terminated by a later resume
/// append, is corrupt rather than cached.
std::optional<std::uint64_t> line_hash(const char* data, std::size_t size) {
  static constexpr std::string_view kNeedle = "\"hash\":\"";
  const std::string_view line(data, size);
  if (line.size() < 2 || line.front() != '{' || line.back() != '}')
    return std::nullopt;
  const std::size_t at = line.find(kNeedle);
  std::uint64_t hash = 0;
  if (at == std::string_view::npos ||
      !parse_hash_hex(line.substr(at + kNeedle.size(), 16), hash))
    return std::nullopt;
  return hash;
}

}  // namespace

StoreIndex::~StoreIndex() {
  for (const auto& s : stores_)
    if (s.fd >= 0) ::close(s.fd);
}

std::optional<StoreIndex::Entry> StoreIndex::lookup(std::uint64_t hash) const {
  const auto it = index_.find(hash);
  if (it == index_.end()) return std::nullopt;
  return it->second;
}

std::uint64_t StoreIndex::indexed_bytes() const {
  std::uint64_t total = 0;
  for (const auto& s : stores_) total += s.frontier;
  return total;
}

std::size_t StoreIndex::index_chunk(std::size_t store_idx, const char* data,
                                    std::size_t size,
                                    std::uint64_t base_offset) {
  std::size_t added = 0;
  std::size_t pos = 0;
  while (pos < size) {
    const void* nl = std::memchr(data + pos, '\n', size - pos);
    if (nl == nullptr) break;  // torn tail: not indexed, frontier stays put
    const std::size_t len =
        static_cast<std::size_t>(static_cast<const char*>(nl) - (data + pos));
    if (len > 0) {
      const auto hash = line_hash(data + pos, len);
      if (!hash) {
        ++corrupt_lines_;
      } else if (index_.contains(*hash)) {
        ++duplicates_;
      } else {
        Entry e;
        e.store = static_cast<std::uint32_t>(store_idx);
        e.offset = base_offset + pos;
        e.length = static_cast<std::uint32_t>(len);
        index_.emplace(*hash, e);
        ++added;
      }
    }
    pos += len + 1;
    stores_[store_idx].frontier = base_offset + pos;
  }
  return added;
}

std::size_t StoreIndex::scan_store(std::size_t store_idx) {
  Store& store = stores_[store_idx];
  struct stat at_path {};
  const bool exists = ::stat(store.path.c_str(), &at_path) == 0;
  if (store.fd >= 0) {
    // The store shrank (truncated), was deleted, or a rename replaced it:
    // the recorded offsets no longer name these bytes, so drop every entry
    // pointing into it and start over on a fresh handle.
    struct stat held {};
    const bool same = exists && ::fstat(store.fd, &held) == 0 &&
                      held.st_dev == at_path.st_dev &&
                      held.st_ino == at_path.st_ino &&
                      static_cast<std::uint64_t>(held.st_size) >=
                          store.frontier;
    if (!same) {
      std::erase_if(index_, [&](const auto& kv) {
        return kv.second.store == store_idx;
      });
      store.frontier = 0;
      ::close(store.fd);
      store.fd = -1;
    }
  }
  if (!exists) return 0;  // registered before it exists: refresh finds it
  if (store.fd < 0) {
    store.fd = ::open(store.path.c_str(), O_RDONLY | O_CLOEXEC);
    if (store.fd < 0) return 0;
  }
  struct stat st {};
  if (::fstat(store.fd, &st) != 0) return 0;
  const auto size = static_cast<std::uint64_t>(st.st_size);
  const std::uint64_t from = store.frontier;
  if (size <= from) return 0;
  const auto len = static_cast<std::size_t>(size - from);

  if (len >= kMmapThreshold) {
    void* map = ::mmap(nullptr, static_cast<std::size_t>(size), PROT_READ,
                       MAP_PRIVATE, store.fd, 0);
    if (map != MAP_FAILED) {
      const std::size_t added = index_chunk(
          store_idx, static_cast<const char*>(map) + from, len, from);
      ::munmap(map, static_cast<std::size_t>(size));
      return added;
    }
    // mmap refused (FS without mmap support, exotic mount): pread below.
  }
  std::string buf(len, '\0');
  const auto got = util::pread_full(store.fd, buf.data(), len, from);
  if (got <= 0) return 0;
  return index_chunk(store_idx, buf.data(), static_cast<std::size_t>(got),
                     from);
}

std::size_t StoreIndex::add_store(const std::string& path) {
  for (std::size_t i = 0; i < stores_.size(); ++i)
    if (stores_[i].path == path) return scan_store(i);
  stores_.push_back(Store{path});
  return scan_store(stores_.size() - 1);
}

std::size_t StoreIndex::refresh() {
  std::size_t added = 0;
  for (std::size_t i = 0; i < stores_.size(); ++i) added += scan_store(i);
  if (added > 0) ++generation_;
  return added;
}

std::optional<std::string> StoreIndex::fetch_line(std::uint64_t hash) const {
  const auto entry = lookup(hash);
  if (!entry) return std::nullopt;
  std::string line(entry->length, '\0');
  if (util::pread_full(stores_[entry->store].fd, line.data(), line.size(),
                       entry->offset) !=
      static_cast<std::ptrdiff_t>(line.size()))
    return std::nullopt;
  return line;
}

}  // namespace oracle::exp
