#pragma once
// One grammar for every "key=value[,key=value]" spec body: strategy keys
// ("cwn:radius=5,horizon=1"), synthetic and burst workload keys, and the
// workload cost suffix (";leaf=2,split=1"). A kind's table binds each key
// to a field of its parameter struct; parse() reads a body into the
// struct, check() holds the fields to their rows' ranges (the kinds'
// constructors call it too), and name()/extras() render the struct back.
//
// Keys are case-insensitive. An unknown or repeated key, a malformed
// value and a value outside its row's range are ConfigErrors that name
// the kind and list its keys. A row's default is its field in a
// value-initialised struct; a name shows every labelled row and every
// other row that differs from its default, so two settings never share
// a name.

#include <algorithm>
#include <charconv>
#include <cstdint>
#include <limits>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
#include <variant>
#include <vector>

#include "util/error.hpp"
#include "util/string_util.hpp"

namespace oracle::util {

/// Split a comma list of specs (CLI axis flags, the service query, worker
/// command lines), trimming items and dropping empty ones. An item with
/// '=' but no ':' is one more key of the spec before it:
/// "cwn:radius=5,horizon=1,gm" is two specs.
std::vector<std::string> split_spec_list(std::string_view list);

inline constexpr double kNoLimit = std::numeric_limits<double>::infinity();

/// "<what>", "<what> >= min", "<what> <= max" or "<what> in [min, max]".
std::string spec_expected(std::string_view what, double min, double max);

/// A value as a spec writes it: 1/0 for bools, the shortest exact form
/// for doubles.
template <class T>
std::string format_spec_value(T v) {
  if constexpr (std::is_same_v<T, bool>) {
    return v ? "1" : "0";
  } else {
    char buf[32];
    return std::string(buf, std::to_chars(buf, buf + sizeof buf, v).ptr);
  }
}

/// One key of a kind's table, bound to a field of its parameter struct.
template <class P>
struct SpecKey {
  std::string_view key;
  std::variant<std::uint32_t P::*, std::int64_t P::*, std::uint64_t P::*,
               bool P::*, double P::*>
      field;
  double min = -kNoLimit;
  double max = kNoLimit;
  /// Labelled rows are the ones the kind's own name format shows. The
  /// others show as "key=value" when they differ from their default.
  std::string_view label{};
};

template <class P>
struct Spec {
  std::string_view kind;
  std::span<const SpecKey<P>> keys;

  /// Set the fields `body` names ("k=v,k=v"; "" names none). Every other
  /// field keeps its value in `p`.
  void parse(std::string_view body, P& p) const {
    if (trim(body).empty()) return;
    std::vector<bool> seen(keys.size());
    for (const std::string& item : split(body, ',')) {
      const auto eq = item.find('=');
      if (eq == std::string::npos) fail("expected key=value, got '" + item + "'");
      const std::string key(trim(std::string_view(item).substr(0, eq)));
      const std::string_view text = trim(std::string_view(item).substr(eq + 1));
      std::size_t k = 0;
      while (k < keys.size() && !iequals(keys[k].key, key)) ++k;
      if (k == keys.size()) fail("unknown key '" + key + "'");
      if (seen[k]) fail("duplicate key '" + key + "'");
      seen[k] = true;
      std::visit([&](auto f) {
        if (!read(text, p.*f)) bad_value(keys[k], text);
      }, keys[k].field);
    }
    check(p);
  }

  P parse(std::string_view body) const {
    P p{};
    parse(body, p);
    return p;
  }

  /// Throw the error parse() would give for the first field of `p` that
  /// is outside its row's range.
  void check(const P& p) const {
    for (const auto& row : keys)
      std::visit([&](auto f) {
        const auto v = static_cast<double>(p.*f);
        if (!(v >= row.min && v <= row.max))  // NaN fails too
          bad_value(row, format_spec_value(p.*f));
      }, row.field);
  }

  /// "kind(label=value,...,key=value,...)": every labelled row, then the
  /// other rows that differ from their defaults.
  std::string name(const P& p) const {
    std::string out(kind);
    char sep = '(';
    for (const auto& row : keys)
      if (!row.label.empty()) append(out, sep, row.label, row, p);
    for (const auto& row : keys)
      if (row.label.empty() && changed(row, p)) append(out, sep, row.key, row, p);
    return out + ')';
  }

  /// For kinds with a name format of their own over the labelled rows:
  /// "(key=value,...)" over the other rows that differ from their
  /// defaults, or "" when none does.
  std::string extras(const P& p) const {
    std::string out;
    char sep = '(';
    for (const auto& row : keys)
      if (row.label.empty() && changed(row, p)) append(out, sep, row.key, row, p);
    return out.empty() ? out : out + ')';
  }

 private:
  template <class T>
  static bool read(std::string_view s, T& out) {
    T v{};
    if constexpr (std::is_same_v<T, bool>) {
      v = iequals(s, "true") || s == "1";
      if (!v && !iequals(s, "false") && s != "0") return false;
    } else {
      const char* end = s.data() + s.size();
      const auto [stop, ec] = std::from_chars(s.data(), end, v);
      if (s.empty() || ec != std::errc() || stop != end) return false;
    }
    out = v;
    return true;
  }

  static bool changed(const SpecKey<P>& row, const P& p) {
    static constexpr P kDefaults{};
    return std::visit([&](auto f) { return p.*f != kDefaults.*f; }, row.field);
  }

  static void append(std::string& out, char& sep, std::string_view label,
                     const SpecKey<P>& row, const P& p) {
    ((out += sep) += label) += '=';
    out += std::visit([&](auto f) { return format_spec_value(p.*f); }, row.field);
    sep = ',';
  }

  [[noreturn]] void bad_value(const SpecKey<P>& row,
                              std::string_view text) const {
    const std::string expected = std::visit([&](auto f) {
      using T = std::remove_cvref_t<decltype(P{}.*f)>;
      if constexpr (std::is_same_v<T, bool>)
        return std::string("true, false, 1 or 0");
      else  // with the 32-bit fields' own limits
        return spec_expected(
            std::is_integral_v<T> ? "an integer" : "a number",
            std::is_unsigned_v<T> ? std::max(row.min, 0.0) : row.min,
            sizeof(T) < 8 ? std::min(row.max, double{UINT32_MAX}) : row.max);
    }, row.field);
    fail(std::string(row.key) + "=" + std::string(text) + ": expected " +
         expected);
  }

  [[noreturn]] void fail(const std::string& what) const {
    std::string msg = std::string(kind) + ": " + what + " (keys: ";
    for (const auto& row : keys)
      (msg += row.key) += &row == &keys.back() ? ")" : ", ";
    throw ConfigError(msg);
  }
};

}  // namespace oracle::util
