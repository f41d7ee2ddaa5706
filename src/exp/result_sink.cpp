#include "exp/result_sink.hpp"

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <cstring>
#include <iterator>
#include <string_view>

#include "stats/csv.hpp"
#include "util/error.hpp"
#include "util/file_util.hpp"
#include "util/string_util.hpp"
#include "util/text_out.hpp"

namespace oracle::exp {

namespace {

/// A JSON string literal: runs of plain bytes are copied whole, and only
/// a quote, a backslash or a control byte is escaped (\n, \t, \r, else
/// \u00XX in lower-case hex).
struct JsonString {
  std::string_view text;
};

util::StringOut& operator<<(util::StringOut& out, JsonString s) {
  static constexpr char kHex[] = "0123456789abcdef";
  const std::string_view t = s.text;
  out << '"';
  std::size_t run = 0;  ///< first byte not yet written
  for (std::size_t i = 0; i < t.size(); ++i) {
    const auto c = static_cast<unsigned char>(t[i]);
    if (c >= 0x20 && c != '"' && c != '\\') continue;
    out << t.substr(run, i - run);
    run = i + 1;
    switch (c) {
      case '"': out << "\\\""; break;
      case '\\': out << "\\\\"; break;
      case '\n': out << "\\n"; break;
      case '\t': out << "\\t"; break;
      case '\r': out << "\\r"; break;
      default: {
        const char esc[] = {'\\', 'u', '0', '0', kHex[c >> 4], kHex[c & 0xf]};
        out << std::string_view(esc, sizeof esc);
      }
    }
  }
  return out << t.substr(run) << '"';
}

/// fsync a file store after its stream was flushed to the OS.
void sync_store(const std::string& path) {
  if (util::fsync_path(path) || errno == EINVAL) return;
  throw SimulationError("fsync of '" + path + "' failed: " +
                        std::strerror(errno));
}

}  // namespace

bool has_partial_last_line(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  in.seekg(0, std::ios::end);
  const auto size = in.tellg();
  if (size <= 0) return false;
  in.seekg(-1, std::ios::end);
  char last = '\n';
  in.get(last);
  return last != '\n';
}

namespace {

// --- one-pass JSONL record parsing (we only parse records we wrote) ------

/// One past the closing quote of the JSON string that opens at s[open];
/// npos when it is unterminated. The character after a backslash is
/// skipped, so `\"` stays inside the string and `\\"` closes it.
std::size_t string_end(std::string_view s, std::size_t open) {
  for (std::size_t i = open + 1; i < s.size(); ++i) {
    if (s[i] == '\\') {
      ++i;
    } else if (s[i] == '"') {
      return i + 1;
    }
  }
  return std::string_view::npos;
}

/// A number that spans the whole value: no '+', space or suffix.
template <typename T>
bool to_number(std::string_view v, T& out) {
  const char* end = v.data() + v.size();
  const auto [p, ec] = std::from_chars(v.data(), end, out);
  return ec == std::errc() && p == end;
}

/// A quoted value with its escapes (jsonl_record's json_escape) undone.
bool to_string(std::string_view v, std::string& out) {
  if (v.size() < 2 || v.front() != '"' || v.back() != '"') return false;
  v = v.substr(1, v.size() - 2);
  if (v.find('\\') == std::string_view::npos) {  // nothing to undo
    out.assign(v);
    return true;
  }
  out.clear();
  out.reserve(v.size());
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (v[i] != '\\') {
      out += v[i];
      continue;
    }
    if (++i == v.size()) return false;
    switch (v[i]) {
      case 'n': out += '\n'; break;
      case 't': out += '\t'; break;
      case 'r': out += '\r'; break;
      case 'u': {
        // json_escape writes \u00XX for the remaining control bytes.
        unsigned code = 0;
        const auto hex = v.substr(i + 1, 4);
        const auto [p, ec] =
            std::from_chars(hex.data(), hex.data() + hex.size(), code, 16);
        if (hex.size() != 4 || ec != std::errc() ||
            p != hex.data() + hex.size() || code > 0xff)
          return false;
        out += static_cast<char>(code);
        i += 4;
        break;
      }
      default: out += v[i];
    }
  }
  return true;
}

/// Setters for the record fields, one per value kind.
bool job_field(std::string_view v, JsonlRecord& r) {
  return to_number(v, r.job_index);
}

bool hash_field(std::string_view v, JsonlRecord& r) {
  return v.size() == 18 && v.front() == '"' && v.back() == '"' &&
         parse_hash_hex(v.substr(1, 16), r.content_hash);
}

template <auto Member>
bool number_field(std::string_view v, JsonlRecord& r) {
  return to_number(v, r.result.*Member);
}

template <auto Member>
bool string_field(std::string_view v, JsonlRecord& r) {
  return to_string(v, r.result.*Member);
}

/// The 22 fields of a record, in the order jsonl_record writes them.
struct Field {
  std::string_view key;
  bool (*set)(std::string_view value, JsonlRecord& rec);
};

using stats::RunResult;
constexpr Field kFields[] = {
    {"job", job_field},
    {"hash", hash_field},
    {"topology", string_field<&RunResult::topology>},
    {"strategy", string_field<&RunResult::strategy>},
    {"workload", string_field<&RunResult::workload>},
    {"num_pes", number_field<&RunResult::num_pes>},
    {"seed", number_field<&RunResult::seed>},
    {"completion_time", number_field<&RunResult::completion_time>},
    {"goals_executed", number_field<&RunResult::goals_executed>},
    {"total_work", number_field<&RunResult::total_work>},
    {"critical_path", number_field<&RunResult::critical_path>},
    {"avg_utilization", number_field<&RunResult::avg_utilization>},
    {"speedup", number_field<&RunResult::speedup>},
    {"utilization_cv", number_field<&RunResult::utilization_cv>},
    {"max_min_utilization_gap",
     number_field<&RunResult::max_min_utilization_gap>},
    {"avg_goal_distance", number_field<&RunResult::avg_goal_distance>},
    {"goal_transmissions", number_field<&RunResult::goal_transmissions>},
    {"response_transmissions",
     number_field<&RunResult::response_transmissions>},
    {"control_transmissions", number_field<&RunResult::control_transmissions>},
    {"avg_channel_utilization",
     number_field<&RunResult::avg_channel_utilization>},
    {"max_channel_utilization",
     number_field<&RunResult::max_channel_utilization>},
    {"events_executed", number_field<&RunResult::events_executed>},
};
constexpr std::size_t kNumFields = std::size(kFields);
static_assert(kNumFields < 32, "the seen-field mask is 32 bits");

/// Index of `key` in kFields, trying `hint` (the writer's next field)
/// first; kNumFields for a key the record does not define.
std::size_t field_index(std::string_view key, std::size_t hint) {
  if (hint < kNumFields && kFields[hint].key == key) return hint;
  for (std::size_t f = 0; f < kNumFields; ++f)
    if (kFields[f].key == key) return f;
  return kNumFields;
}

/// One past the closing quote of the key string that opens at s[open].
/// The writer's next key (`hint`) is tried first with one comparison:
/// record keys hold no quote or backslash, so a match ends exactly where
/// string_end's byte scan would.
std::size_t key_end(std::string_view s, std::size_t open, std::size_t hint) {
  if (hint < kNumFields) {
    const std::string_view k = kFields[hint].key;
    const std::size_t close = open + 1 + k.size();
    if (close < s.size() && s[close] == '"' &&
        s.substr(open + 1, k.size()) == k)
      return close + 1;
  }
  return string_end(s, open);
}

}  // namespace

std::string jsonl_record(const ExperimentJob& job, const stats::RunResult& r) {
  // Doubles print as %.17g: losslessly and, crucially for byte-identical
  // output, identically for identical values (util::TextOut).
  std::string line;
  line.reserve(640);  // a typical record is ~590 bytes
  util::StringOut out(line);
  out << "{\"job\":" << job.index                                    //
      << ",\"hash\":\"" << util::Hex16{job.content_hash} << '"'     //
      << ",\"topology\":" << JsonString{r.topology}                  //
      << ",\"strategy\":" << JsonString{r.strategy}                  //
      << ",\"workload\":" << JsonString{r.workload}                  //
      << ",\"num_pes\":" << r.num_pes                                //
      << ",\"seed\":" << r.seed                                      //
      << ",\"completion_time\":" << r.completion_time                //
      << ",\"goals_executed\":" << r.goals_executed                  //
      << ",\"total_work\":" << r.total_work                          //
      << ",\"critical_path\":" << r.critical_path                    //
      << ",\"avg_utilization\":" << r.avg_utilization                //
      << ",\"speedup\":" << r.speedup                                //
      << ",\"utilization_cv\":" << r.utilization_cv                  //
      << ",\"max_min_utilization_gap\":" << r.max_min_utilization_gap
      << ",\"avg_goal_distance\":" << r.avg_goal_distance            //
      << ",\"goal_transmissions\":" << r.goal_transmissions          //
      << ",\"response_transmissions\":" << r.response_transmissions  //
      << ",\"control_transmissions\":" << r.control_transmissions    //
      << ",\"avg_channel_utilization\":" << r.avg_channel_utilization
      << ",\"max_channel_utilization\":" << r.max_channel_utilization
      << ",\"events_executed\":" << r.events_executed << '}';
  return line;
}

std::optional<JsonlRecord> parse_jsonl_record(std::string_view line) {
  if (line.size() < 2 || line.front() != '{' || line.back() != '}')
    return std::nullopt;
  // Walk the "key":value pairs between the braces once. A string value
  // ends at its closing quote; any other value at the next comma.
  const std::string_view body = line.substr(1, line.size() - 2);
  JsonlRecord rec;
  std::uint32_t seen = 0;  ///< bit f: kFields[f] already parsed
  std::size_t next = 0;    ///< the field the writer emits next
  std::size_t pos = 0;
  while (true) {
    if (pos >= body.size() || body[pos] != '"') return std::nullopt;
    const std::size_t colon = key_end(body, pos, next);
    if (colon >= body.size() || body[colon] != ':') return std::nullopt;
    const std::string_view key = body.substr(pos + 1, colon - pos - 2);

    const std::size_t value_begin = colon + 1;
    std::size_t value_end = body.size();
    if (value_begin < body.size() && body[value_begin] == '"') {
      value_end = string_end(body, value_begin);
      if (value_end == std::string_view::npos) return std::nullopt;
    } else {
      value_end = std::min(body.find(',', value_begin), body.size());
    }

    // The first occurrence of a key wins; unknown keys are ignored.
    const std::size_t f = field_index(key, next);
    if (f < kNumFields && (seen & (1u << f)) == 0) {
      if (!kFields[f].set(body.substr(value_begin, value_end - value_begin),
                          rec))
        return std::nullopt;
      seen |= 1u << f;
      next = f + 1;
    }

    if (value_end == body.size()) break;
    if (body[value_end] != ',') return std::nullopt;
    pos = value_end + 1;
  }
  if (seen != (1u << kNumFields) - 1) return std::nullopt;
  return rec;
}

std::unordered_set<std::uint64_t> load_completed_hashes(
    const std::string& path) {
  std::unordered_set<std::uint64_t> done;
  std::ifstream in(path);
  if (!in) return done;
  std::string line;
  while (std::getline(in, line)) {
    if (const auto rec = parse_jsonl_record(line)) done.insert(rec->content_hash);
  }
  return done;
}

std::unordered_set<std::uint64_t> load_completed_hashes_csv(
    const std::string& path) {
  std::unordered_set<std::uint64_t> done;
  std::ifstream in(path);
  if (!in) return done;
  // Field-separating commas only: commas inside quoted fields (escaped
  // strategy specs like "cwn(r=9,h=2)") don't count. The "" escape inside
  // a quoted field toggles the flag twice, which is harmless.
  const auto fields = [](const std::string& s) {
    long n = 0;
    bool quoted = false;
    for (const char c : s) {
      if (c == '"') {
        quoted = !quoted;
      } else if (c == ',' && !quoted) {
        ++n;
      }
    }
    return n;
  };
  const auto expected = fields(CsvSink::header());
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("job,hash,", 0) == 0) continue;  // header
    if (fields(line) != expected) continue;         // truncated/foreign row
    const auto c1 = line.find(',');
    const auto c2 = line.find(',', c1 + 1);
    if (c1 == std::string::npos || c2 == std::string::npos) continue;
    std::uint64_t hash = 0;
    if (parse_hash_hex(line.substr(c1 + 1, c2 - c1 - 1), hash))
      done.insert(hash);
  }
  return done;
}

// ------------------------------------------------------------- JsonlSink --

JsonlSink::JsonlSink(const std::string& path, bool append) : path_(path) {
  const bool partial_tail = append && has_partial_last_line(path);
  file_.open(path, append ? (std::ios::out | std::ios::app)
                          : (std::ios::out | std::ios::trunc));
  if (!file_) throw SimulationError("cannot open '" + path + "' for writing");
  // Terminate a killed run's partial final line so the first appended
  // record starts on its own line (the partial line itself stays ignored
  // by parse_jsonl_record, exactly as during the resume scan).
  if (partial_tail) file_ << '\n';
  os_ = &file_;
}

void JsonlSink::write(const ExperimentJob& job, const stats::RunResult& r) {
  *os_ << jsonl_record(job, r) << '\n';
  if (!*os_) throw SimulationError("JSONL write failed");
}

void JsonlSink::flush() {
  os_->flush();
  if (!*os_) throw SimulationError("JSONL flush failed");
  if (!path_.empty()) sync_store(path_);
}

// --------------------------------------------------------------- CsvSink --

CsvSink::CsvSink(const std::string& path, bool append) : path_(path) {
  bool partial_tail = false;
  if (append) {
    // Only emit the header when the file is empty / absent.
    std::ifstream probe(path);
    header_written_ = probe.good() && probe.peek() != std::ifstream::traits_type::eof();
    partial_tail = has_partial_last_line(path);
  }
  file_.open(path, append ? (std::ios::out | std::ios::app)
                          : (std::ios::out | std::ios::trunc));
  if (!file_) throw SimulationError("cannot open '" + path + "' for writing");
  if (partial_tail) file_ << '\n';
  os_ = &file_;
}

std::string CsvSink::header() {
  return "job,hash," + stats::run_result_csv_header();
}

std::string CsvSink::row(const ExperimentJob& job, const stats::RunResult& r) {
  return strfmt("%llu,%s,", static_cast<unsigned long long>(job.index),
                hash_hex(job.content_hash).c_str()) +
         stats::run_result_csv_row(r);
}

void CsvSink::write(const ExperimentJob& job, const stats::RunResult& r) {
  if (!header_written_) {
    *os_ << header() << '\n';
    header_written_ = true;
  }
  *os_ << row(job, r) << '\n';
  if (!*os_) throw SimulationError("CSV write failed");
}

void CsvSink::flush() {
  os_->flush();
  if (!*os_) throw SimulationError("CSV flush failed");
  if (!path_.empty()) sync_store(path_);
}

// ------------------------------------------------------------ MemorySink --

std::vector<stats::RunResult> MemorySink::results() const {
  std::vector<stats::RunResult> out;
  out.reserve(runs_.size());
  for (const auto& [job, r] : runs_) out.push_back(r);
  return out;
}

}  // namespace oracle::exp
