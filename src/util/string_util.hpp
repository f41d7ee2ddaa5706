#pragma once
// Small string helpers shared by config parsing and report printing.

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace oracle {

/// Split `s` on `delim`, keeping empty fields ("a::b" -> {"a","","b"}).
std::vector<std::string> split(std::string_view s, char delim);

/// Strip ASCII whitespace from both ends.
std::string_view trim(std::string_view s);

/// Case-insensitive ASCII comparison.
bool iequals(std::string_view a, std::string_view b);

/// Lower-cased copy (ASCII only).
std::string to_lower(std::string_view s);

/// Parse a decimal integer; throws ConfigError naming `what` on failure.
/// A sign is accepted: callers that need a lower bound check it.
std::int64_t parse_int(std::string_view s, std::string_view what);

/// Parse a double; throws ConfigError naming `what` on failure.
double parse_double(std::string_view s, std::string_view what);

/// printf-style formatting into std::string.
std::string strfmt(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

/// Fixed-point formatting with `digits` decimals (report tables).
std::string fixed(double value, int digits);

/// True if `s` starts with `prefix`.
bool starts_with(std::string_view s, std::string_view prefix);

/// Join items with a separator.
std::string join(const std::vector<std::string>& items, std::string_view sep);

/// FNV-1a's 64-bit offset basis: the hash of no bytes.
constexpr std::uint64_t kFnv1aOffset = 0xcbf29ce484222325ULL;

/// FNV-1a 64-bit content hash. The batch engine's job identity and the
/// shared-topology cache key both use it, so "same bytes, same identity"
/// holds across both layers. `h` continues a hash: fnv1a64(b, fnv1a64(a))
/// is the hash of a followed by b.
constexpr std::uint64_t fnv1a64(std::string_view s,
                                std::uint64_t h = kFnv1aOffset) noexcept {
  for (const char ch : s) {
    h ^= static_cast<unsigned char>(ch);
    h *= 0x100000001b3ULL;
  }
  return h;
}

}  // namespace oracle
