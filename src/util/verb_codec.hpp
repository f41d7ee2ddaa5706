#pragma once
// One codec for the versioned text dialects: the lease wire protocol
// ("v1"), the service wire protocol ("s1") and the lease journal ("J1").
// Every line has the shape
//
//   <tag> [<seq>] <verb> <u64>... [<token>] [<text>]
//
// with fields separated by runs of spaces. A dialect is a table of verbs,
// indexed by its message-kind enum. Each verb names the message fields
// its u64 arguments travel in, in order, then optionally a one-token
// string field and a trailing free-text field. The table is the whole
// grammar: encode and parse have no per-kind code.
//
// Free text is every byte after the single space that follows the last
// token, kept byte-exact: it may hold spaces and newlines, is never
// trimmed, and is never tokenised, so a megabyte table stays one string.
// A verb without free text must end after its last field.

#include <array>
#include <charconv>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>

namespace oracle::util {

/// Strict decimal u64: digits only, overflow-checked. nullopt otherwise.
inline std::optional<std::uint64_t> parse_u64_token(std::string_view s) {
  std::uint64_t v = 0;
  const char* end = s.data() + s.size();
  const auto [stop, ec] = std::from_chars(s.data(), end, v);
  if (s.empty() || ec != std::errc() || stop != end) return std::nullopt;
  return v;
}

template <class Msg>
struct Verb {
  std::string_view word;
  std::array<std::uint64_t Msg::*, 6> args{};  ///< unused entries stay null
  std::string Msg::* token = nullptr;  ///< one space-free word
  std::string Msg::* text = nullptr;   ///< trailing free text
};

template <class Msg, class Kind>
struct Dialect {
  std::string_view tag;
  std::uint64_t Msg::* seq;  ///< null: the lines carry no seq
  Kind Msg::* kind;
  std::span<const Verb<Msg>> verbs;  ///< verbs[k] encodes Kind(k)

  std::string encode(const Msg& m) const {
    const Verb<Msg>& verb = verbs[static_cast<std::size_t>(m.*kind)];
    std::string out;
    out.reserve(64 + (verb.text ? (m.*verb.text).size() : 0));
    out += tag;
    if (seq) append_u64(out, m.*seq);
    out += ' ';
    out += verb.word;
    for (const auto field : verb.args)
      if (field) append_u64(out, m.*field);
    if (verb.token) (out += ' ') += m.*verb.token;
    if (verb.text) (out += ' ') += m.*verb.text;
    return out;
  }

  std::optional<Msg> parse(std::string_view line) const {
    Tokens tok{line};
    if (tok.next() != tag) return std::nullopt;
    Msg m{};
    if (seq) {
      const auto s = parse_u64_token(tok.next());
      if (!s) return std::nullopt;
      m.*seq = *s;
    }
    const std::string_view word = tok.next();
    std::size_t k = 0;
    while (k < verbs.size() && verbs[k].word != word) ++k;
    if (k == verbs.size()) return std::nullopt;
    const Verb<Msg>& verb = verbs[k];
    m.*kind = static_cast<Kind>(k);
    for (const auto field : verb.args) {
      if (!field) break;
      const auto v = parse_u64_token(tok.next());
      if (!v) return std::nullopt;
      m.*field = *v;
    }
    if (verb.token) {
      const std::string_view t = tok.next();
      if (t.empty()) return std::nullopt;
      assign(m.*verb.token, t);
    }
    if (verb.text)
      assign(m.*verb.text, tok.rest());
    else if (!tok.next().empty())
      return std::nullopt;
    return m;
  }

 private:
  // Out of line: inlined, GCC 12 at -O3 reports this store as a read of
  // uninitialized memory for message types without any string field.
  [[gnu::noinline]] static void assign(std::string& field,
                                       std::string_view value) {
    field = value;
  }

  static void append_u64(std::string& out, std::uint64_t v) {
    char buf[24];
    buf[0] = ' ';
    const auto [end, ec] = std::to_chars(buf + 1, buf + sizeof buf, v);
    out.append(buf, end);
  }

  /// Left-to-right tokens of a line; next() is "" past the last one.
  struct Tokens {
    std::string_view line;
    std::size_t pos = 0;

    std::string_view next() {
      while (pos < line.size() && line[pos] == ' ') ++pos;
      const std::size_t begin = pos;
      while (pos < line.size() && line[pos] != ' ') ++pos;
      return line.substr(begin, pos - begin);
    }
    /// The bytes after the one space that ends the last token.
    std::string_view rest() const {
      return line.substr(pos < line.size() ? pos + 1 : pos);
    }
  };
};

}  // namespace oracle::util
