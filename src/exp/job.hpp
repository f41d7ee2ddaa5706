#pragma once
// A batch job: one ExperimentConfig plus its position in the sweep and a
// content hash over every field that influences the simulation outcome.
//
// The hash is the identity used by the result cache / resume: two jobs
// with the same hash would produce the same RunResult (the simulator is
// deterministic in its config), so a completed hash never needs re-running.
// Conversely, touching any knob — even a cost-model field — changes the
// hash and invalidates stale cache entries.

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

#include "core/config.hpp"

namespace oracle::exp {

struct ExperimentJob {
  /// Position in the originating sweep (stable across resume: skipped jobs
  /// keep their index, so records always identify the same grid point).
  std::size_t index = 0;

  core::ExperimentConfig config;

  /// job_content_hash(config), cached at queue-build time.
  std::uint64_t content_hash = 0;
};

/// Canonical serialization of every outcome-relevant config field, in a
/// fixed order. This string — not the struct layout — defines job identity,
/// so it must change whenever a new knob is added to ExperimentConfig.
/// One field list (write_canonical in job.cpp) produces it, tagged "v1".
std::string job_canonical_string(const core::ExperimentConfig& config);

/// FNV-1a (64-bit) over the bytes of job_canonical_string(). The hash
/// streams those bytes from the same field list straight into the hash
/// state; the string itself is never built.
std::uint64_t job_content_hash(const core::ExperimentConfig& config);

/// Fixed-width lower-case hex rendering used in JSONL and CSV records.
std::string hash_hex(std::uint64_t hash);

/// Inverse of hash_hex; returns false on malformed input.
bool parse_hash_hex(std::string_view hex, std::uint64_t& out);

}  // namespace oracle::exp
