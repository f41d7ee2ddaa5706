#pragma once
// Streaming result persistence for batch runs. The Executor commits results
// strictly in job-index order from its one committer thread, so sinks need
// no internal locking and an interrupted run always leaves a clean prefix
// of the sweep on disk. The file store is the only durable record of a
// completed job: resume reads completions back from it.
//
// JSONL is the primary store: one self-describing record per run, carrying
// the job index and content hash so a later --resume invocation can tell
// exactly which grid points are already done. CSV mirrors stats/csv.cpp's
// schema for spreadsheet/plotting pipelines. MemorySink collects results
// in-process (the library-level run_batch return value), and TeeSink fans
// one stream out to several backends (e.g. JSONL file + memory).

#include <cstdint>
#include <fstream>
#include <iosfwd>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_set>
#include <utility>
#include <vector>

#include "exp/job.hpp"
#include "stats/run_result.hpp"

namespace oracle::exp {

class ResultSink {
 public:
  virtual ~ResultSink() = default;

  /// Persist one finished run. Calls arrive in ascending job.index order,
  /// all from the executor's committer thread.
  virtual void write(const ExperimentJob& job, const stats::RunResult& r) = 0;

  /// Push buffered data to durable storage (called once per commit group;
  /// a group counts as committed only when this returns).
  virtual void flush() {}
};

/// One run as a single-line JSON object (no trailing newline). Numeric
/// fields use %.17g so equal doubles always render identically — the basis
/// of the byte-identical-JSONL determinism guarantee.
std::string jsonl_record(const ExperimentJob& job, const stats::RunResult& r);

/// The fields recoverable from one JSONL line. `result` carries everything
/// the record stores; fields the record does not persist (histograms, time
/// series) are left default.
struct JsonlRecord {
  std::uint64_t job_index = 0;
  std::uint64_t content_hash = 0;
  stats::RunResult result;
};

/// Parse one JSONL line in a single pass over its "key":value pairs;
/// std::nullopt on malformed/truncated input (a killed run's final partial
/// line must not poison a resume). The contract:
///   - the line starts with '{' and ends with '}';
///   - all 22 fields jsonl_record writes are present, and each value is
///     consumed exactly (no '+', space or suffix around a number; a
///     string's escapes decode as json_escape wrote them);
///   - the first occurrence of a key wins; unknown keys are ignored;
///   - values are strings or scalars: a string ends at its first
///     unescaped quote, any other value at the next comma.
std::optional<JsonlRecord> parse_jsonl_record(std::string_view line);

/// Scan an existing JSONL file and collect the content hashes of completed
/// jobs. Missing file ⇒ empty set; corrupt lines are skipped.
std::unordered_set<std::uint64_t> load_completed_hashes(
    const std::string& path);

/// Same recovery scan for a CsvSink file: collects the `hash` column of
/// every complete row (field count must match the header; truncated tail
/// rows are ignored). Missing file ⇒ empty set.
std::unordered_set<std::uint64_t> load_completed_hashes_csv(
    const std::string& path);

/// True if `path` exists, is non-empty, and does not end in a newline —
/// i.e. a previous run was killed mid-write. Append-mode sinks terminate
/// such a partial line first so the next record starts clean (the partial
/// line itself stays ignored by the parsers).
bool has_partial_last_line(const std::string& path);

/// Append-mode JSONL file (or caller-owned stream) sink.
class JsonlSink : public ResultSink {
 public:
  /// Writes to `path`; `append` keeps existing records (resume mode).
  explicit JsonlSink(const std::string& path, bool append = false);
  /// Writes to a caller-owned stream (tests, stdout piping).
  explicit JsonlSink(std::ostream& os) : os_(&os) {}

  void write(const ExperimentJob& job, const stats::RunResult& r) override;

  /// Flush to the OS and (file-backed sinks only) fsync. Throws
  /// SimulationError when either fails, so a group whose records may not
  /// be on disk never counts as committed. A target that cannot sync at
  /// all (EINVAL, e.g. /dev/null) is accepted.
  void flush() override;

 private:
  std::ofstream file_;
  std::string path_;  ///< empty for caller-owned streams (no fsync target)
  std::ostream* os_ = nullptr;
};

/// CSV sink with the stats/csv.cpp column schema plus leading job/hash
/// columns. Emits the header once (skipped when appending to a non-empty
/// file).
class CsvSink : public ResultSink {
 public:
  explicit CsvSink(const std::string& path, bool append = false);
  explicit CsvSink(std::ostream& os) : os_(&os) {}

  void write(const ExperimentJob& job, const stats::RunResult& r) override;
  void flush() override;

  static std::string header();
  static std::string row(const ExperimentJob& job, const stats::RunResult& r);

 private:
  std::ofstream file_;
  std::string path_;  ///< empty for caller-owned streams (no fsync target)
  std::ostream* os_ = nullptr;
  bool header_written_ = false;
};

/// Collects (job, result) pairs in memory, in commit (= job index) order.
class MemorySink : public ResultSink {
 public:
  void write(const ExperimentJob& job, const stats::RunResult& r) override {
    runs_.emplace_back(job, r);
  }

  const std::vector<std::pair<ExperimentJob, stats::RunResult>>& runs() const {
    return runs_;
  }

  /// Just the results, in job order.
  std::vector<stats::RunResult> results() const;

 private:
  std::vector<std::pair<ExperimentJob, stats::RunResult>> runs_;
};

/// Forwards every write/flush to each child sink in order.
class TeeSink : public ResultSink {
 public:
  void add(ResultSink& sink) { sinks_.push_back(&sink); }

  void write(const ExperimentJob& job, const stats::RunResult& r) override {
    for (auto* s : sinks_) s->write(job, r);
  }
  void flush() override {
    for (auto* s : sinks_) s->flush();
  }

 private:
  std::vector<ResultSink*> sinks_;
};

}  // namespace oracle::exp
