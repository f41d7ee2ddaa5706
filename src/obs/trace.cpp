#include "obs/trace.hpp"

#include <algorithm>
#include <atomic>
#include <cctype>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <mutex>

#include "util/error.hpp"
#include "util/file_util.hpp"
#include "util/string_util.hpp"

#include <dirent.h>

namespace oracle::obs {

namespace {

/// One thread's preallocated event buffer. Owned by the global registry
/// (not the thread): a worker thread that exits mid-run must leave its
/// events readable for the end-of-run flush.
struct ThreadBuffer {
  std::uint32_t tid = 0;
  std::vector<TraceEvent> events;
  std::atomic<std::size_t> count{0};  ///< published size (emit is wait-free)
  std::size_t dropped = 0;
};

struct Registry {
  std::mutex mutex;
  std::vector<std::unique_ptr<ThreadBuffer>> buffers;
  std::string process_name;
  std::uint32_t pid = 0;
  std::size_t capacity = 1 << 16;
};

std::atomic<bool> g_enabled{false};
std::atomic<std::uint64_t> g_flow_id{1};
Registry& registry() {
  static Registry r;
  return r;
}

thread_local ThreadBuffer* t_buffer = nullptr;

ThreadBuffer* this_thread_buffer() {
  if (t_buffer) return t_buffer;
  Registry& reg = registry();
  std::lock_guard<std::mutex> lock(reg.mutex);
  auto buf = std::make_unique<ThreadBuffer>();
  buf->tid = static_cast<std::uint32_t>(reg.buffers.size());
  buf->events.resize(reg.capacity);
  t_buffer = buf.get();
  reg.buffers.push_back(std::move(buf));
  return t_buffer;
}

void append_args(std::string& out, const TraceEvent& ev) {
  if (!ev.arg0_name && !ev.arg1_name) return;
  out += ",\"args\":{";
  bool first = true;
  if (ev.arg0_name) {
    out += strfmt("\"%s\":%lld", ev.arg0_name,
                  static_cast<long long>(ev.arg0));
    first = false;
  }
  if (ev.arg1_name) {
    if (!first) out += ',';
    out += strfmt("\"%s\":%lld", ev.arg1_name,
                  static_cast<long long>(ev.arg1));
  }
  out += '}';
}

std::string metadata_line(const char* kind, const char* value_key,
                          const std::string& value, std::uint32_t pid,
                          std::uint32_t tid) {
  return strfmt(
      "{\"name\":\"%s\",\"ph\":\"M\",\"pid\":%u,\"tid\":%u,"
      "\"args\":{\"%s\":\"%s\"}}",
      kind, pid, tid, value_key, value.c_str());
}

/// Write buffered events of every thread as lines through `emit_line`.
template <typename EmitLine>
std::size_t for_each_buffered_line(EmitLine&& emit_line) {
  Registry& reg = registry();
  std::lock_guard<std::mutex> lock(reg.mutex);
  emit_line(metadata_line("process_name", "name", reg.process_name, reg.pid, 0));
  std::size_t written = 0;
  for (const auto& buf : reg.buffers) {
    emit_line(metadata_line("thread_name", "name",
                            strfmt("thread-%u", buf->tid), reg.pid, buf->tid));
    const std::size_t n =
        std::min(buf->count.load(std::memory_order_acquire),
                 buf->events.size());
    for (std::size_t i = 0; i < n; ++i) {
      emit_line(event_to_json_line(buf->events[i], reg.pid, buf->tid));
      ++written;
    }
  }
  return written;
}

}  // namespace

bool Tracer::enabled() noexcept {
  return g_enabled.load(std::memory_order_relaxed);
}

void Tracer::enable(std::uint32_t logical_pid, std::string process_name,
                    std::size_t per_thread_capacity) {
  Registry& reg = registry();
  {
    std::lock_guard<std::mutex> lock(reg.mutex);
    reg.pid = logical_pid;
    reg.process_name = std::move(process_name);
    reg.capacity = std::max<std::size_t>(per_thread_capacity, 16);
    for (auto& buf : reg.buffers) {
      buf->count.store(0, std::memory_order_relaxed);
      buf->dropped = 0;
      buf->events.resize(reg.capacity);
    }
  }
  g_enabled.store(true, std::memory_order_release);
}

void Tracer::disable() noexcept {
  g_enabled.store(false, std::memory_order_release);
}

std::uint32_t Tracer::logical_pid() noexcept {
  Registry& reg = registry();
  std::lock_guard<std::mutex> lock(reg.mutex);
  return reg.pid;
}

std::int64_t Tracer::now_ns() noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void Tracer::emit(const TraceEvent& ev) noexcept {
  if (!enabled()) return;
  ThreadBuffer* buf = this_thread_buffer();
  const std::size_t i = buf->count.load(std::memory_order_relaxed);
  if (i >= buf->events.size()) {
    ++buf->dropped;
    return;
  }
  buf->events[i] = ev;
  // Release-publish the new size so a concurrent flush never reads a
  // half-written slot.
  buf->count.store(i + 1, std::memory_order_release);
}

std::uint64_t Tracer::next_flow_id() noexcept {
  return g_flow_id.fetch_add(1, std::memory_order_relaxed);
}

std::size_t Tracer::dropped() noexcept {
  Registry& reg = registry();
  std::lock_guard<std::mutex> lock(reg.mutex);
  std::size_t total = 0;
  for (const auto& buf : reg.buffers) total += buf->dropped;
  return total;
}

std::size_t Tracer::buffered() noexcept {
  Registry& reg = registry();
  std::lock_guard<std::mutex> lock(reg.mutex);
  std::size_t total = 0;
  for (const auto& buf : reg.buffers)
    total += buf->count.load(std::memory_order_acquire);
  return total;
}

void Tracer::clear() noexcept {
  Registry& reg = registry();
  std::lock_guard<std::mutex> lock(reg.mutex);
  for (auto& buf : reg.buffers) {
    buf->count.store(0, std::memory_order_relaxed);
    buf->dropped = 0;
  }
}

std::size_t Tracer::write_event_lines(const std::string& path, bool append) {
  std::ofstream out(path, append ? (std::ios::out | std::ios::app)
                                 : (std::ios::out | std::ios::trunc));
  if (!out)
    throw SimulationError("cannot open trace file '" + path + "' for writing");
  const std::size_t written =
      for_each_buffered_line([&](const std::string& line) {
        out << line << '\n';
      });
  out.flush();
  if (!out) throw SimulationError("trace write to '" + path + "' failed");
  return written;
}

std::size_t Tracer::write_json(const std::string& path) {
  std::string doc = "{\"traceEvents\":[\n";
  std::size_t lines = 0;
  const std::size_t written =
      for_each_buffered_line([&](const std::string& line) {
        if (lines++ > 0) doc += ",\n";
        doc += line;
      });
  doc += "\n]}\n";
  util::write_file_atomic(path, doc);
  return written;
}

// ------------------------------------------------------------- serializer --

std::string event_to_json_line(const TraceEvent& ev, std::uint32_t pid,
                               std::uint32_t tid) {
  // Timestamps are microseconds in the trace-event format; three decimals
  // keep the full nanosecond resolution.
  std::string line = strfmt(
      "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"%c\",\"ts\":%.3f,",
      ev.name ? ev.name : "?", ev.cat ? ev.cat : "?", ev.ph,
      static_cast<double>(ev.ts_ns) / 1000.0);
  if (ev.ph == 'X')
    line += strfmt("\"dur\":%.3f,", static_cast<double>(ev.dur_ns) / 1000.0);
  if (ev.ph == 's' || ev.ph == 'f')
    line += strfmt("\"id\":%llu,",
                   static_cast<unsigned long long>(ev.flow_id));
  if (ev.ph == 'f') line += "\"bp\":\"e\",";
  line += strfmt("\"pid\":%u,\"tid\":%u", pid, tid);
  if (ev.ph == 'i') line += ",\"s\":\"t\"";  // thread-scoped instant
  append_args(line, ev);
  line += '}';
  return line;
}

// ----------------------------------------------------------------- parser --

namespace {

/// Extract the number following `"key":` in a line written by this
/// tracer. Good for our own fixed output, not a general JSON parser.
std::optional<double> find_number(const std::string& line,
                                  const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  const auto pos = line.find(needle);
  if (pos == std::string::npos) return std::nullopt;
  const char* start = line.c_str() + pos + needle.size();
  char* end = nullptr;
  const double v = std::strtod(start, &end);
  if (end == start) return std::nullopt;
  return v;
}

std::optional<std::string> find_string(const std::string& line,
                                       const std::string& key) {
  const std::string needle = "\"" + key + "\":\"";
  const auto pos = line.find(needle);
  if (pos == std::string::npos) return std::nullopt;
  const auto start = pos + needle.size();
  const auto end = line.find('"', start);
  if (end == std::string::npos) return std::nullopt;
  return line.substr(start, end - start);
}

}  // namespace

std::optional<ParsedEvent> parse_event_line(const std::string& line) {
  if (line.empty() || line.front() != '{' || line.back() != '}')
    return std::nullopt;
  ParsedEvent ev;
  const auto name = find_string(line, "name");
  const auto ph = find_string(line, "ph");
  const auto ts = find_number(line, "ts");
  const auto pid = find_number(line, "pid");
  const auto tid = find_number(line, "tid");
  if (!name || !ph || ph->size() != 1 || !pid || !tid) return std::nullopt;
  // Metadata events carry no timestamp; everything else must.
  if (!ts && (*ph)[0] != 'M') return std::nullopt;
  ev.name = *name;
  ev.ph = (*ph)[0];
  ev.ts_us = ts.value_or(0.0);
  ev.dur_us = find_number(line, "dur").value_or(0.0);
  ev.pid = static_cast<std::int64_t>(*pid);
  ev.tid = static_cast<std::int64_t>(*tid);
  return ev;
}

// ------------------------------------------------------------------ merge --

std::string worker_trace_path(const std::string& trace_base, std::size_t slot,
                              std::size_t count) {
  return trace_base + strfmt(".%zuof%zu", slot, count);
}

std::string parent_trace_path(const std::string& trace_base) {
  return trace_base + ".parent";
}

std::vector<std::string> discover_trace_files(const std::string& trace_base) {
  std::vector<std::string> out;
  if (util::file_exists(parent_trace_path(trace_base)))
    out.push_back(parent_trace_path(trace_base));
  const auto slash = trace_base.find_last_of('/');
  const std::string dir =
      slash == std::string::npos ? "." : trace_base.substr(0, slash);
  const std::string base =
      slash == std::string::npos ? trace_base : trace_base.substr(slash + 1);
  const std::string prefix = base + ".";
  std::vector<std::pair<std::size_t, std::string>> slots;
  if (DIR* dp = ::opendir(dir.c_str())) {
    while (const dirent* entry = ::readdir(dp)) {
      const std::string fname = entry->d_name;
      if (fname.size() <= prefix.size() ||
          fname.compare(0, prefix.size(), prefix) != 0)
        continue;
      // Accept exactly "<digits>of<digits>" after the prefix.
      const std::string suffix = fname.substr(prefix.size());
      const auto of = suffix.find("of");
      if (of == std::string::npos || of == 0 ||
          of + 2 >= suffix.size())
        continue;
      const std::string k = suffix.substr(0, of);
      const std::string w = suffix.substr(of + 2);
      auto all_digits = [](const std::string& s) {
        return !s.empty() &&
               std::all_of(s.begin(), s.end(), [](unsigned char c) {
                 return std::isdigit(c) != 0;
               });
      };
      if (!all_digits(k) || !all_digits(w)) continue;
      slots.emplace_back(static_cast<std::size_t>(std::strtoull(
                             k.c_str(), nullptr, 10)),
                         dir + "/" + fname);
    }
    ::closedir(dp);
  }
  std::sort(slots.begin(), slots.end());
  for (auto& [slot, path] : slots) out.push_back(std::move(path));
  return out;
}

TraceMergeReport merge_trace_files(const std::vector<std::string>& inputs,
                                   const std::string& out_path) {
  TraceMergeReport report;
  struct Line {
    double ts = 0.0;
    std::string text;
  };
  std::vector<Line> metadata;  // ph:M lines keep input order, sorted first
  std::vector<Line> events;

  for (const auto& input : inputs) {
    std::ifstream in(input);
    if (!in) continue;  // a worker slot that never ran
    ++report.files_read;
    std::string line;
    while (std::getline(in, line)) {
      if (line.empty()) continue;
      const auto ev = parse_event_line(line);
      if (!ev) {
        ++report.corrupt_lines;
        continue;
      }
      if (ev->ph == 'M')
        metadata.push_back({0.0, line});
      else
        events.push_back({ev->ts_us, line});
      ++report.events;
    }
  }

  // Stable sort: equal timestamps keep input order, so the merge of a
  // fixed input set is byte-deterministic.
  std::stable_sort(events.begin(), events.end(),
                   [](const Line& a, const Line& b) { return a.ts < b.ts; });

  std::string doc = "{\"traceEvents\":[\n";
  bool first = true;
  auto emit = [&](const std::string& text) {
    if (!first) doc += ",\n";
    first = false;
    doc += text;
  };
  for (const auto& line : metadata) emit(line.text);
  for (const auto& line : events) emit(line.text);
  doc += "\n]}\n";
  util::write_file_atomic(out_path, doc);
  return report;
}

}  // namespace oracle::obs
