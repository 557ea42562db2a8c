// wrebench: the repository's end-to-end benchmark.
//
//   wrebench --workload <point_lookup|scan_filter|ingest_mixed> --seed <n>
//            --seconds <s> --trace <0|1> [--work-dir <dir>]
//
// --trace 0 prints the end-to-end metrics; --trace 1 runs the traced
// per-layer breakdown instead (see traced.cpp), prints its exact counters
// on a "counts" line and writes its spans under --work-dir. The last line
// of stdout is one JSON object: {"correct", "attempted", "failed",
// "metrics"}. A failed correctness gate exits 1.
#include <cstdlib>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>

#include "src/crypto/cpu_features.h"
#include "wrebench/harness.h"

#ifndef WREBENCH_BUILD_TYPE
#define WREBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace wrebench;

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_number(double v) {
  std::ostringstream os;
  os.precision(15);
  os << v;
  return os.str();
}

std::string json_bands(const std::vector<std::pair<uint64_t, uint64_t>>& bands) {
  std::string out = "[";
  for (size_t i = 0; i < bands.size(); ++i) {
    out += (i ? ", [" : "[") + std::to_string(bands[i].first) + ", " +
           std::to_string(bands[i].second) + "]";
  }
  return out + "]";
}

/// Host, build and settings of this run, as one JSON line.
std::string context_line(const RunOptions& opt, const WorkloadConfig& cfg) {
  const char* commit = std::getenv("WREBENCH_COMMIT");
  std::ostringstream os;
  os << "{\"context\": {"
     << "\"workload\": " << json_string(cfg.name)
     << ", \"seed\": " << opt.seed << ", \"seconds\": " << opt.seconds
     << ", \"trace\": " << (opt.trace ? 1 : 0)
     << ", \"nproc\": " << std::thread::hardware_concurrency()
     << ", \"build_type\": " << json_string(WREBENCH_BUILD_TYPE)
     << ", \"hwcrypto\": " << json_string(crypto::hwcrypto_summary())
     << ", \"commit\": " << json_string(commit != nullptr ? commit : "unknown")
     << ", \"work_dir\": " << json_string(opt.work_dir.string())
     << ", \"tmpfs\": false"
     << ", \"fsync\": " << (cfg.durable ? "\"on\"" : "\"no WAL\"")
     << ", \"rows\": " << cfg.rows
     << ", \"buffer_pool_pages\": " << cfg.pool_pages
     << ", \"salt_method\": " << json_string(core::salt_method_name(cfg.method))
     << ", \"lambda\": " << json_number(cfg.lambda)
     << ", \"columnar\": " << (cfg.columnar ? "true" : "false")
     << ", \"point_bands\": " << json_bands(cfg.point_bands)
     << ", \"point_star_share\": " << json_number(cfg.point_star_share)
     << ", \"scan_bands\": " << json_bands(cfg.scan_bands)
     << ", \"scan_range_share\": " << json_number(cfg.scan_range_share)
     << ", \"scan_share\": " << json_number(cfg.scan_share)
     << ", \"setups\": " << kSetups
     << ", \"server_workers\": " << kServerWorkers
     << ", \"ingest_threads\": " << kIngestThreads
     << ", \"client_threads\": " << cfg.client_threads
     << ", \"writer_rows_per_s\": "
     << json_number(cfg.write_batches_per_s *
                    static_cast<double>(cfg.write_batch_rows))
     << ", \"writer_batch_rows\": " << cfg.write_batch_rows << "}}";
  return os.str();
}

int run(int argc, char** argv) {
  RunOptions opt;
  opt.work_dir = ".bench_build/wrebench-data";
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + a);
    std::string v = argv[++i];
    if (a == "--workload") {
      opt.workload = v;
      have_workload = true;
    } else if (a == "--seed") {
      opt.seed = std::stoull(v);
    } else if (a == "--seconds") {
      opt.seconds = std::stoi(v);
      if (opt.seconds < 1) throw std::invalid_argument("--seconds must be >= 1");
    } else if (a == "--trace") {
      if (v != "0" && v != "1") throw std::invalid_argument("--trace 0|1");
      opt.trace = v == "1";
    } else if (a == "--work-dir") {
      opt.work_dir = v;
    } else {
      throw std::invalid_argument("unknown argument " + a);
    }
  }
  if (!have_workload) throw std::invalid_argument("--workload is required");
  const WorkloadConfig& cfg = workload_config(opt.workload);
  std::filesystem::create_directories(opt.work_dir);

  std::cout << context_line(opt, cfg) << "\n";
  RunReport rep = opt.trace ? run_traced(opt) : run_untraced(opt);
  for (const auto& n : rep.notes) std::cout << "# " << n << "\n";
  if (!rep.counts.empty()) {
    std::cout << "{\"counts\": {";
    for (size_t i = 0; i < rep.counts.size(); ++i) {
      std::cout << (i ? ", " : "") << json_string(rep.counts[i].first) << ": "
                << rep.counts[i].second;
    }
    std::cout << "}}\n";
  }
  std::cout << "{\"correct\": " << (rep.correct ? "true" : "false")
            << ", \"attempted\": " << rep.attempted
            << ", \"failed\": " << rep.failed << ", \"metrics\": {";
  for (size_t i = 0; i < rep.metrics.size(); ++i) {
    const Metric& m = rep.metrics[i];
    std::cout << (i ? ", " : "") << json_string(m.name)
              << ": {\"value\": " << json_number(m.value)
              << ", \"unit\": " << json_string(m.unit) << "}";
  }
  std::cout << "}}" << std::endl;
  return rep.correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "wrebench: " << e.what() << "\n";
    return 2;
  }
}
