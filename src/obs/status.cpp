#include "obs/status.hpp"

#include <cstdlib>
#include <fstream>
#include <sstream>

#include "util/file_util.hpp"
#include "util/string_util.hpp"

namespace oracle::obs {

namespace {

/// Extract the number following `"key":` — sufficient for snapshots this
/// module wrote itself (flat keys, no nested duplicates before `from`).
std::optional<double> find_number(const std::string& json,
                                  const std::string& key,
                                  std::size_t from = 0) {
  const std::string needle = "\"" + key + "\":";
  const auto pos = json.find(needle, from);
  if (pos == std::string::npos) return std::nullopt;
  const char* start = json.c_str() + pos + needle.size();
  char* end = nullptr;
  const double v = std::strtod(start, &end);
  if (end == start) return std::nullopt;
  return v;
}

/// A count field; 0 when absent, as in snapshots from older writers.
std::size_t find_count(const std::string& json, const std::string& key) {
  return static_cast<std::size_t>(find_number(json, key).value_or(0.0));
}

std::optional<bool> find_bool(const std::string& json, const std::string& key,
                              std::size_t from = 0) {
  const std::string needle = "\"" + key + "\":";
  const auto pos = json.find(needle, from);
  if (pos == std::string::npos) return std::nullopt;
  if (json.compare(pos + needle.size(), 4, "true") == 0) return true;
  if (json.compare(pos + needle.size(), 5, "false") == 0) return false;
  return std::nullopt;
}

std::optional<std::string> find_string(const std::string& json,
                                       const std::string& key) {
  const std::string needle = "\"" + key + "\":\"";
  const auto pos = json.find(needle);
  if (pos == std::string::npos) return std::nullopt;
  const auto start = pos + needle.size();
  const auto end = json.find('"', start);
  if (end == std::string::npos) return std::nullopt;
  return json.substr(start, end - start);
}

}  // namespace

double StatusSnapshot::jobs_per_second() const {
  return elapsed_seconds > 0
             ? static_cast<double>(jobs_done) / elapsed_seconds
             : 0.0;
}

double StatusSnapshot::eta_seconds() const {
  if (phase == "done" || phase == "failed" || jobs_done >= jobs_total)
    return 0.0;
  const double rate = jobs_per_second();
  return rate > 0 ? static_cast<double>(jobs_total - jobs_done) / rate : -1.0;
}

std::string StatusSnapshot::to_json() const {
  std::string out = strfmt(
      "{\"v\":%d,\"phase\":\"%s\",\"jobs_total\":%zu,\"jobs_done\":%zu,"
      "\"jobs_per_s\":%.3f,\"eta_s\":%.3f,\"elapsed_s\":%.3f,"
      "\"steals\":%zu,\"restarts\":%zu,\"quarantined\":%zu,\"fenced\":%zu,"
      "\"retries\":%zu,\"requests\":%zu,\"cache_hits\":%zu,"
      "\"connections\":%zu,\"queue_depth\":%zu,\"in_flight\":%zu,"
      "\"evicted\":%zu,\"expiry_s\":%s,\"workers\":[",
      kVersion, phase.c_str(), jobs_total, jobs_done, jobs_per_second(),
      eta_seconds(), elapsed_seconds, steals, restarts, quarantined, fenced,
      retries, requests, cache_hits, connections, queue_depth, in_flight,
      evicted,
      expiry_s ? strfmt("%.3f", *expiry_s).c_str() : "\"none\"");
  for (std::size_t i = 0; i < workers.size(); ++i) {
    const WorkerStatus& w = workers[i];
    if (i > 0) out += ',';
    out += strfmt(
        "{\"slot\":%zu,\"live\":%s,\"lease_begin\":%zu,\"lease_end\":%zu,"
        "\"frontier\":%zu,\"restarts\":%zu,\"heartbeat_age_s\":%.3f}",
        w.slot, w.live ? "true" : "false", w.lease_begin, w.lease_end,
        w.frontier, w.restarts, w.heartbeat_age_s);
  }
  out += "]}";
  return out;
}

std::optional<StatusSnapshot> StatusSnapshot::parse(const std::string& json) {
  StatusSnapshot s;
  const auto version = find_number(json, "v");
  const auto phase = find_string(json, "phase");
  const auto total = find_number(json, "jobs_total");
  const auto done = find_number(json, "jobs_done");
  if (!version || static_cast<int>(*version) != kVersion || !phase ||
      !total || !done)
    return std::nullopt;
  s.phase = *phase;
  s.jobs_total = static_cast<std::size_t>(*total);
  s.jobs_done = static_cast<std::size_t>(*done);
  s.elapsed_seconds = find_number(json, "elapsed_s").value_or(0.0);
  s.steals = find_count(json, "steals");
  s.restarts = find_count(json, "restarts");
  s.quarantined = find_count(json, "quarantined");
  s.fenced = find_count(json, "fenced");
  s.retries = find_count(json, "retries");
  s.requests = find_count(json, "requests");
  s.cache_hits = find_count(json, "cache_hits");
  s.connections = find_count(json, "connections");
  s.queue_depth = find_count(json, "queue_depth");
  s.in_flight = find_count(json, "in_flight");
  s.evicted = find_count(json, "evicted");
  s.expiry_s = find_number(json, "expiry_s");  // "none" parses as nullopt

  const auto arr = json.find("\"workers\":[");
  if (arr == std::string::npos) return std::nullopt;
  std::size_t pos = arr + std::string("\"workers\":[").size();
  while (true) {
    const auto open = json.find('{', pos);
    const auto close = json.find('}', pos);
    const auto end = json.find(']', pos);
    if (end != std::string::npos && (open == std::string::npos || end < open))
      break;  // end of array
    if (open == std::string::npos || close == std::string::npos ||
        close < open)
      return std::nullopt;
    const std::string obj = json.substr(open, close - open + 1);
    WorkerStatus w;
    const auto slot = find_number(obj, "slot");
    if (!slot) return std::nullopt;
    w.slot = static_cast<std::size_t>(*slot);
    w.live = find_bool(obj, "live").value_or(false);
    w.lease_begin = find_count(obj, "lease_begin");
    w.lease_end = find_count(obj, "lease_end");
    w.frontier = find_count(obj, "frontier");
    w.restarts = find_count(obj, "restarts");
    w.heartbeat_age_s = find_number(obj, "heartbeat_age_s").value_or(-1.0);
    s.workers.push_back(w);
    pos = close + 1;
  }
  return s;
}

void write_status_file(const std::string& path, const StatusSnapshot& s) {
  util::write_file_atomic(path, s.to_json() + "\n");
}

std::optional<StatusSnapshot> read_status_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;
  std::ostringstream os;
  os << in.rdbuf();
  return StatusSnapshot::parse(os.str());
}

}  // namespace oracle::obs
