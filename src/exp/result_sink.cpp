#include "exp/result_sink.hpp"

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <sstream>

#include "stats/csv.hpp"
#include "util/error.hpp"
#include "util/file_util.hpp"
#include "util/string_util.hpp"

namespace oracle::exp {

namespace {

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          out += strfmt("\\u%04x", c);
        } else {
          out += c;
        }
    }
  }
  return out;
}

/// fsync a file store after its stream was flushed to the OS.
void sync_store(const std::string& path) {
  if (util::fsync_path(path) || errno == EINVAL) return;
  throw SimulationError("fsync of '" + path + "' failed: " +
                        std::strerror(errno));
}

/// %.17g prints doubles losslessly and, crucially for byte-identical
/// output, identically for identical values.
std::string json_double(double v) { return strfmt("%.17g", v); }

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

// --- minimal JSONL field extraction (we only parse records we wrote) -----

/// Find the raw value substring following `"key":`; npos-pair on absence.
bool find_value(const std::string& line, const char* key, std::size_t& begin,
                std::size_t& end) {
  const std::string needle = std::string("\"") + key + "\":";
  const std::size_t at = line.find(needle);
  if (at == std::string::npos) return false;
  begin = at + needle.size();
  if (begin >= line.size()) return false;
  if (line[begin] == '"') {
    // String value: scan to the closing unescaped quote.
    std::size_t i = begin + 1;
    while (i < line.size() && (line[i] != '"' || line[i - 1] == '\\')) ++i;
    if (i >= line.size()) return false;
    end = i + 1;
  } else {
    std::size_t i = begin;
    while (i < line.size() && line[i] != ',' && line[i] != '}') ++i;
    if (i >= line.size()) return false;
    end = i;
  }
  return true;
}

bool get_string(const std::string& line, const char* key, std::string& out) {
  std::size_t b = 0, e = 0;
  if (!find_value(line, key, b, e)) return false;
  if (line[b] != '"' || e - b < 2) return false;
  const std::string raw = line.substr(b + 1, e - b - 2);
  out.clear();
  out.reserve(raw.size());
  for (std::size_t i = 0; i < raw.size(); ++i) {
    if (raw[i] == '\\' && i + 1 < raw.size()) {
      const char c = raw[++i];
      switch (c) {
        case 'n': out += '\n'; break;
        case 't': out += '\t'; break;
        case 'r': out += '\r'; break;
        default: out += c;
      }
    } else {
      out += raw[i];
    }
  }
  return true;
}

bool get_u64(const std::string& line, const char* key, std::uint64_t& out) {
  std::size_t b = 0, e = 0;
  if (!find_value(line, key, b, e)) return false;
  errno = 0;
  char* endp = nullptr;
  const auto v = std::strtoull(line.c_str() + b, &endp, 10);
  if (errno != 0 || endp != line.c_str() + e) return false;
  out = v;
  return true;
}

bool get_i64(const std::string& line, const char* key, std::int64_t& out) {
  std::size_t b = 0, e = 0;
  if (!find_value(line, key, b, e)) return false;
  errno = 0;
  char* endp = nullptr;
  const auto v = std::strtoll(line.c_str() + b, &endp, 10);
  if (errno != 0 || endp != line.c_str() + e) return false;
  out = v;
  return true;
}

bool get_double(const std::string& line, const char* key, double& out) {
  std::size_t b = 0, e = 0;
  if (!find_value(line, key, b, e)) return false;
  errno = 0;
  char* endp = nullptr;
  const double v = std::strtod(line.c_str() + b, &endp);
  if (errno != 0 || endp != line.c_str() + e) return false;
  out = v;
  return true;
}

}  // namespace

std::string jsonl_record(const ExperimentJob& job, const stats::RunResult& r) {
  std::ostringstream os;
  os << "{\"job\":" << job.index                                     //
     << ",\"hash\":\"" << hash_hex(job.content_hash) << '"'          //
     << ",\"topology\":\"" << json_escape(r.topology) << '"'         //
     << ",\"strategy\":\"" << json_escape(r.strategy) << '"'         //
     << ",\"workload\":\"" << json_escape(r.workload) << '"'         //
     << ",\"num_pes\":" << r.num_pes                                 //
     << ",\"seed\":" << r.seed                                       //
     << ",\"completion_time\":" << r.completion_time                 //
     << ",\"goals_executed\":" << r.goals_executed                   //
     << ",\"total_work\":" << r.total_work                           //
     << ",\"critical_path\":" << r.critical_path                     //
     << ",\"avg_utilization\":" << json_double(r.avg_utilization)    //
     << ",\"speedup\":" << json_double(r.speedup)                    //
     << ",\"utilization_cv\":" << json_double(r.utilization_cv)      //
     << ",\"max_min_utilization_gap\":"
     << json_double(r.max_min_utilization_gap)                       //
     << ",\"avg_goal_distance\":" << json_double(r.avg_goal_distance)//
     << ",\"goal_transmissions\":" << r.goal_transmissions           //
     << ",\"response_transmissions\":" << r.response_transmissions   //
     << ",\"control_transmissions\":" << r.control_transmissions     //
     << ",\"avg_channel_utilization\":"
     << json_double(r.avg_channel_utilization)                       //
     << ",\"max_channel_utilization\":"
     << json_double(r.max_channel_utilization)                       //
     << ",\"events_executed\":" << r.events_executed << '}';
  return os.str();
}

std::optional<JsonlRecord> parse_jsonl_record(const std::string& line) {
  if (line.empty() || line.front() != '{' || line.back() != '}')
    return std::nullopt;
  JsonlRecord rec;
  std::string hash_str;
  if (!get_u64(line, "job", rec.job_index)) return std::nullopt;
  if (!get_string(line, "hash", hash_str) ||
      !parse_hash_hex(hash_str, rec.content_hash))
    return std::nullopt;
  auto& r = rec.result;
  std::uint64_t num_pes = 0;
  if (!get_string(line, "topology", r.topology) ||
      !get_string(line, "strategy", r.strategy) ||
      !get_string(line, "workload", r.workload) ||
      !get_u64(line, "num_pes", num_pes) || !get_u64(line, "seed", r.seed) ||
      !get_i64(line, "completion_time", r.completion_time) ||
      !get_u64(line, "goals_executed", r.goals_executed) ||
      !get_i64(line, "total_work", r.total_work) ||
      !get_i64(line, "critical_path", r.critical_path) ||
      !get_double(line, "avg_utilization", r.avg_utilization) ||
      !get_double(line, "speedup", r.speedup) ||
      !get_double(line, "utilization_cv", r.utilization_cv) ||
      !get_double(line, "max_min_utilization_gap", r.max_min_utilization_gap) ||
      !get_double(line, "avg_goal_distance", r.avg_goal_distance) ||
      !get_u64(line, "goal_transmissions", r.goal_transmissions) ||
      !get_u64(line, "response_transmissions", r.response_transmissions) ||
      !get_u64(line, "control_transmissions", r.control_transmissions) ||
      !get_double(line, "avg_channel_utilization",
                  r.avg_channel_utilization) ||
      !get_double(line, "max_channel_utilization",
                  r.max_channel_utilization) ||
      !get_u64(line, "events_executed", r.events_executed))
    return std::nullopt;
  r.num_pes = static_cast<std::uint32_t>(num_pes);
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
