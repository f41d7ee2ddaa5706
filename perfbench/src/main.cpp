// perfbench — runs one benchmark workload and prints one JSON object
// (the raw result run.py turns into the benchmark's report):
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//                    --out-dir DIR --fixture-dir DIR --oracle-batch PATH
//
// Workloads: sweep_tiny, sweep_steal, serve_rw, large_machine (see the
// files of the same names). Exit 0 when the workload ran, whether or not
// its correctness checks passed (the JSON says); 1 when it could not run.

#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>

#include "common.hpp"
#include "util/log.hpp"

namespace {

using namespace perfbench;

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "NaN";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

/// `{"k":v,...}` with each value rendered by `render`.
template <typename V, typename Render>
std::string json_object(const std::vector<std::pair<std::string, V>>& kv,
                        Render&& render) {
  std::string out = "{";
  for (const auto& [k, v] : kv) {
    if (out.size() > 1) out += ',';
    out += json_string(k);
    out += ':';
    out += render(v);
  }
  return out + "}";
}

std::string json_array(const std::vector<std::string>& items) {
  std::string out = "[";
  for (const auto& s : items) {
    if (out.size() > 1) out += ',';
    out += json_string(s);
  }
  return out + "]";
}

std::string to_json(const Result& r, const Options& opt) {
  std::string out = "{\"correct\":";
  out += r.correct ? "true" : "false";
  out += ",\"attempted\":" + std::to_string(r.attempted);
  out += ",\"failed\":" + std::to_string(r.failed);
  out += ",\"e2e\":" + json_object(r.e2e, json_number);
  out += ",\"layers\":" + json_object(r.layers, json_number);
  out += ",\"context\":" + json_object(r.context, json_number);
  out += ",\"traces\":" + json_array(r.traces);
  out += ",\"failures\":" + json_array(r.failures);
  out += ",\"fingerprint\":" + json_object(fingerprint(opt), json_string);
  return out + "}";
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  opt.nproc = std::max(1u, std::thread::hardware_concurrency());
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") opt.workload = value;
    else if (flag == "--seed") opt.seed = std::stoull(value);
    else if (flag == "--seconds") opt.seconds = std::stod(value);
    else if (flag == "--trace") opt.trace = value == "1";
    else if (flag == "--out-dir") opt.out_dir = value;
    else if (flag == "--fixture-dir") opt.fixture_dir = value;
    else if (flag == "--oracle-batch") opt.oracle_batch = value;
    else {
      std::fprintf(stderr, "perfbench: unknown flag %s\n", flag.c_str());
      return 2;
    }
  }
  if (opt.out_dir.empty() || opt.fixture_dir.empty() ||
      opt.oracle_batch.empty()) {
    std::fprintf(stderr, "perfbench: --out-dir, --fixture-dir and "
                         "--oracle-batch are required\n");
    return 2;
  }
  oracle::log::set_level(oracle::log::Level::Warn);
  try {
    remove_tree(opt.out_dir);  // a run starts from a clean directory
    make_dirs(opt.out_dir);
    Result res;
    if (opt.workload == "sweep_tiny") res = run_sweep_tiny(opt);
    else if (opt.workload == "sweep_steal") res = run_sweep_steal(opt);
    else if (opt.workload == "serve_rw") res = run_serve_rw(opt);
    else if (opt.workload == "large_machine") res = run_large_machine(opt);
    else {
      std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                   opt.workload.c_str());
      return 2;
    }
    std::printf("%s\n", to_json(res, opt).c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
