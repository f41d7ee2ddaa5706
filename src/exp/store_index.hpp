#pragma once
// exp::StoreIndex — the in-memory index behind the resident oracle
// service's content-hash result cache: hash -> (store, byte offset,
// length) over one or more JSONL result stores.
//
// The index is built once at startup by scanning each registered store,
// and updated incrementally by refresh(): every store remembers the byte
// frontier up to which it has been indexed, and only the appended suffix
// is rescanned. Scanning stops at the last complete (newline-terminated)
// line — a torn tail left by a killed writer is not indexed, and is
// naturally picked up by the next refresh() once the line is completed
// (or re-skipped forever if it never is). A complete line is indexed only
// when it begins with '{' and ends with '}' (parse_jsonl_record's first
// test) and carries a `"hash":"<16 hex>"` field; every other line counts
// in corrupt_lines(). That matters once a resume append newline-terminates
// a torn tail: the half record may still hold its hash, but it is not a
// record, and a cache that claimed it would leave the job out of every
// table instead of re-running it.
//
// Each registered store keeps one read-only fd, opened when the store
// first exists. A scan reads the unindexed suffix through that fd: one
// pread for small suffixes, a read-only mmap window for large ones (no
// double-buffering a multi-GB file). The scan keeps no record bytes: a
// map node per entry holds the hash, offset, store, length and a row
// pointer in 40 bytes (one 48-byte heap block, as before the pointer).
// fetch_line() preads the exact recorded bytes, so a warm cache hit
// returns the stored record byte-identically without opening anything.
// row() parses an entry's record into its Aggregator::Row the first time
// a query reads it and keeps that row with the entry (sizeof(Row) = 192
// bytes, one 208-byte heap block; its names view one interned copy of
// each distinct topology, strategy and workload name), so later reads
// fold it with no syscall and no parse. A store that shrank, vanished,
// or was replaced by a rename loses its entries, and their rows, and is
// reindexed from a fresh fd.
//
// Duplicate hashes (the same job present in several registered stores, or
// twice in one after an overlapping merge) keep the FIRST occurrence, in
// store registration + file order — matching Aggregator::add_line's dedup
// so a cache answer and a full re-aggregation agree.
//
// Threading contract: the index itself is NOT internally synchronized.
// contains()/lookup()/fetch_line()/row()/size() are safe to call
// concurrently from many readers (fetch_line uses pread, which keeps no
// seek state on the shared fd; row() interns names under its own mutex
// and publishes each parsed row with one compare-and-swap, and a reader
// that loses the race drops its copy), but add_store()/refresh() mutate
// the map and the fds and must be exclusive with every reader.
// exp::Service wraps the index in a readers-writer lock: queries
// aggregate under the shared side, and the one refresh() after each
// committed batch chunk takes the exclusive side — because the stores
// are append-only, a reader between refreshes still sees a consistent
// (merely slightly stale) snapshot, never a torn one.

#include <atomic>
#include <cstdint>
#include <functional>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "exp/aggregate.hpp"

namespace oracle::exp {

class StoreIndex {
 public:
  struct Entry {
    std::uint64_t offset = 0;   ///< byte offset of the line in the store
    std::uint32_t store = 0;    ///< index into stores() registration order
    std::uint32_t length = 0;   ///< line length, excluding the newline
  };

  StoreIndex() = default;
  ~StoreIndex();  ///< closes the store fds

  StoreIndex(const StoreIndex&) = delete;
  StoreIndex& operator=(const StoreIndex&) = delete;

  /// Register a JSONL store and index its current contents. A missing
  /// file registers with zero entries (the store may be created later by
  /// the first scheduled run; refresh() will pick it up). Returns the
  /// number of new hashes indexed. Registering the same path twice is a
  /// no-op beyond a refresh of that store.
  std::size_t add_store(const std::string& path);

  /// Rescan every registered store from its indexed frontier; returns the
  /// number of new hashes indexed.
  std::size_t refresh();

  bool contains(std::uint64_t hash) const { return index_.contains(hash); }
  std::optional<Entry> lookup(std::uint64_t hash) const;

  /// Read back the exact stored JSONL line for `hash` (no trailing
  /// newline). nullopt when the hash is unknown or the store has been
  /// truncated/rewritten underneath the index.
  std::optional<std::string> fetch_line(std::uint64_t hash) const;

  /// The aggregation row of `hash`'s record: parsed from the store on the
  /// first call and kept with the entry until the entry is dropped; its
  /// names live as long as the index. nullptr when the hash is unknown,
  /// the bytes cannot be read, or the line is not a record
  /// parse_jsonl_record accepts. The pointer stays valid until the next
  /// add_store()/refresh().
  const Aggregator::Row* row(std::uint64_t hash) const;

  std::size_t size() const { return index_.size(); }      ///< distinct hashes
  std::size_t store_count() const { return stores_.size(); }
  const std::string& store_path(std::size_t i) const { return stores_[i].path; }

  /// Later occurrences of an already-indexed hash (first one wins).
  std::size_t duplicates() const { return duplicates_; }

  /// Complete lines that are not a `{...}` record with a hash (counted
  /// once; never rescanned).
  std::size_t corrupt_lines() const { return corrupt_lines_; }

  /// Total bytes of complete lines indexed across all stores.
  std::uint64_t indexed_bytes() const;

  /// Monotone snapshot version: bumped by every refresh() that indexed at
  /// least one new record. Two reads under the same generation saw the
  /// same index contents (appends only become visible through refresh).
  std::uint64_t generation() const { return generation_; }

 private:
  struct Store {
    std::string path;
    std::uint64_t frontier = 0;  ///< bytes indexed so far (complete lines)
    int fd = -1;                 ///< read-only handle; -1 until it exists
  };

  /// An entry plus its row, filled by the first row() call.
  struct Slot {
    explicit Slot(const Entry& e) : entry(e) {}
    ~Slot() { delete row.load(std::memory_order_relaxed); }
    Slot(const Slot&) = delete;
    Slot& operator=(const Slot&) = delete;

    Entry entry;
    mutable std::atomic<const Aggregator::Row*> row{nullptr};
  };

  std::size_t scan_store(std::size_t store_idx);
  std::size_t index_chunk(std::size_t store_idx, const char* data,
                          std::size_t size, std::uint64_t base_offset);
  std::optional<std::string> read_line(const Entry& entry) const;
  std::string_view intern(std::string_view name) const;  ///< names_mu_ held

  std::vector<Store> stores_;
  std::unordered_map<std::uint64_t, Slot> index_;
  /// Every grid name a row views (node-based: a name never moves).
  mutable std::mutex names_mu_;
  mutable std::set<std::string, std::less<>> names_;
  std::size_t duplicates_ = 0;
  std::size_t corrupt_lines_ = 0;
  std::uint64_t generation_ = 0;
};

}  // namespace oracle::exp
