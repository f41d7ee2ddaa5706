#pragma once
// Append-only text writers over std::to_chars, for the per-job and
// per-record paths (job identity, grid keys, store records) where printf
// and ostringstream cost more than the work they describe.
//
// One writer body, two sinks: StringOut appends the bytes to a string, and
// Fnv1aOut folds them into an FNV-1a hash without materialising them. A
// canonical form written once through either sink therefore yields its
// text and its hash from the same bytes.
//
// Every formatting rule reproduces one printf conversion exactly, so text
// written here equals its printf rendering byte for byte (store records and
// content hashes depend on that).

#include <charconv>
#include <concepts>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

#include "util/string_util.hpp"

namespace oracle::util {

/// The integer types written as decimal numbers. bool and the character
/// types are excluded, so a flag or a separator is never printed as one
/// (a char is written as itself; a bool does not compile).
template <typename T>
concept DecimalInt =
    std::integral<T> && !std::same_as<T, bool> && !std::same_as<T, char> &&
    !std::same_as<T, signed char> && !std::same_as<T, unsigned char>;

/// A 64-bit value as sixteen lower-case hex digits (printf's %016llx).
struct Hex16 {
  std::uint64_t value;
};

/// The shared formatting rules; `Out` supplies put(std::string_view).
template <typename Out>
class TextOut {
 public:
  Out& operator<<(std::string_view s) {
    self().put(s);
    return self();
  }

  /// Without this, a string literal would convert to bool before it
  /// converted to std::string_view.
  Out& operator<<(const char* s) { return *this << std::string_view(s); }

  Out& operator<<(char c) { return *this << std::string_view(&c, 1); }

  /// Callers spell flags out (flag ? 1 : 0) rather than relying on a
  /// conversion.
  Out& operator<<(bool) = delete;

  /// Decimal digits, as printf's %d, %u, %lld and %llu write them.
  template <DecimalInt T>
  Out& operator<<(T v) {
    char buf[24];  // 20 digits and a sign at most
    return chars(buf, std::to_chars(buf, buf + sizeof buf, v).ptr);
  }

  /// printf's %.17g: std::to_chars with the general format and a
  /// precision is specified as exactly that conversion (C locale). Every
  /// finite double round-trips, and equal values print equal bytes.
  Out& operator<<(double v) {
    char buf[32];  // "-1.2345678901234567e-308" is the longest
    const auto res =
        std::to_chars(buf, buf + sizeof buf, v, std::chars_format::general, 17);
    return chars(buf, res.ptr);
  }

  Out& operator<<(Hex16 h) {
    static constexpr char kDigits[] = "0123456789abcdef";
    char buf[16];
    for (int i = 15; i >= 0; --i) {
      buf[i] = kDigits[h.value & 0xf];
      h.value >>= 4;
    }
    return chars(buf, buf + sizeof buf);
  }

 private:
  Out& self() { return static_cast<Out&>(*this); }
  Out& chars(const char* first, const char* last) {
    return *this << std::string_view(first,
                                     static_cast<std::size_t>(last - first));
  }
};

/// Appends to a caller-owned string.
class StringOut : public TextOut<StringOut> {
 public:
  explicit StringOut(std::string& s) : s_(s) {}
  void put(std::string_view v) { s_.append(v); }

 private:
  std::string& s_;
};

/// Hashes the bytes it is given: fnv1a64 of their concatenation.
class Fnv1aOut : public TextOut<Fnv1aOut> {
 public:
  void put(std::string_view v) { h_ = fnv1a64(v, h_); }
  std::uint64_t hash() const noexcept { return h_; }

 private:
  std::uint64_t h_ = kFnv1aOffset;
};

}  // namespace oracle::util
