#pragma once
// Durability and atomic-replace primitives for the crash-safe result
// stores. POSIX builds get real fsync()/rename() semantics; elsewhere the
// functions degrade to best-effort no-ops so the library still compiles
// (the stores stay correct on clean exits, just without power-loss
// guarantees).

#include <string>

namespace oracle::util {

/// Flush `path`'s written data to stable storage (fsync on POSIX). The
/// caller must already have pushed its buffered writes into the OS (e.g.
/// std::ofstream::flush); this persists them across power loss, not just
/// process death. Returns false when the file cannot be opened or synced,
/// with errno saying why (EINVAL: the target cannot sync, e.g. /dev/null).
/// Result stores treat a failure as fatal; control files treat it as
/// best-effort.
bool fsync_path(const std::string& path) noexcept;

/// fsync the directory containing `path`, making a just-renamed or
/// just-created entry itself durable. Best-effort, as above.
bool fsync_parent_dir(const std::string& path) noexcept;

/// Atomically replace `target` with `tmp` (rename(2)): readers see either
/// the complete old file or the complete new file, never a partial write.
/// The tmp file's data is fsynced first, and the parent directory after.
/// Throws SimulationError when the rename itself fails.
void atomic_replace(const std::string& tmp, const std::string& target);

/// Delete `path` if it exists; returns true when a file was removed.
bool remove_file(const std::string& path) noexcept;

/// True when `path` exists (stat succeeds).
bool file_exists(const std::string& path) noexcept;

/// Create `path` if missing and bump its modification time to now (the
/// one-shot marker of the fault-injection hooks). Returns false when the
/// file cannot be created.
bool touch_file(const std::string& path) noexcept;

/// Atomically publish a small control file: write `content` to a tmp file
/// beside `path`, fsync, and rename over `path` — readers see the old or
/// the new content, never a torn write. Throws SimulationError on failure.
void write_file_atomic(const std::string& path, const std::string& content);

}  // namespace oracle::util
