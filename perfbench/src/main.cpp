// orion_perfbench — the repository benchmark: packets in -> AH lists ->
// served answers, as three workloads (ingest, query, refresh).
//
//   orion_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                   --workdir DIR
//
// Prints progress, gate verdicts and every metric by name and unit, then
// as its last line one JSON object: {"correct", "attempted", "failed",
// "metrics"} with the end-to-end metrics (--trace 0) or the per-layer
// metrics of the traced run (--trace 1). Exits 1 on a usage error or an
// exception, without a result line.
#include <csignal>
#include <filesystem>
#include <iostream>
#include <iterator>
#include <thread>
#include <string>

#include "chain.hpp"
#include "orion/netbase/simd.hpp"
#include "workloads.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace perfbench;

int usage() {
  std::cerr << "usage: orion_perfbench --workload ingest|query|refresh --seed N "
               "--seconds S --trace 0|1 --workdir DIR\n";
  return 1;
}

void print_metrics(const char* kind, const Report& report) {
  for (const Metric& m : report.metrics()) {
    std::cout << "metric " << kind << " " << m.name << " " << json_number(m.value)
              << " " << m.unit << "\n";
  }
}

std::string json_result(const Outcome& out, const Report& metrics) {
  std::string s = "{\"correct\": ";
  s += out.correct ? "true" : "false";
  s += ", \"attempted\": " + std::to_string(out.attempted);
  s += ", \"failed\": " + std::to_string(out.failed);
  s += ", \"metrics\": {";
  bool first = true;
  for (const Metric& m : metrics.metrics()) {
    if (!first) s += ", ";
    first = false;
    s += "\"" + m.name + "\": {\"value\": " + json_number(m.value) +
         ", \"unit\": \"" + m.unit + "\"}";
  }
  return s + "}}";
}

}  // namespace

int main(int argc, char** argv) {
  // A peer that closes its socket must surface as an error, not kill us.
  std::signal(SIGPIPE, SIG_IGN);
  Options opt;
  bool have_trace = false;
  try {
    for (int i = 1; i + 1 < argc; i += 2) {
      const std::string key = argv[i];
      const std::string value = argv[i + 1];
      if (key == "--workload") {
        opt.workload = value;
      } else if (key == "--seed") {
        opt.seed = std::stoull(value);
      } else if (key == "--seconds") {
        opt.seconds = std::stod(value);
      } else if (key == "--trace") {
        if (value != "0" && value != "1") return usage();
        opt.trace = value == "1";
        have_trace = true;
      } else if (key == "--workdir") {
        opt.workdir = value;
      } else {
        return usage();
      }
    }
  } catch (const std::exception&) {
    return usage();
  }
  if (argc % 2 != 1 || !known_workload(opt.workload) || !have_trace ||
      opt.workdir.empty() || opt.seconds <= 0) {
    return usage();
  }

  try {
    std::filesystem::create_directories(opt.workdir);
    std::cout << "host nproc=" << std::thread::hardware_concurrency()
              << " simd=" << orion::net::simd::to_string(orion::net::simd::active_level())
              << " build=" << PERFBENCH_BUILD_TYPE << " daemon_workers=" << kDaemonWorkers
              << " poll_ms=" << kPollMs << " ladder=";
    for (std::size_t i = 0; i < std::size(kQueryLadder); ++i) {
      std::cout << (i == 0 ? "" : ",") << kQueryLadder[i];
    }
    std::cout << " limit_ms=" << kQueryLimitMs << " reference_rate=" << kReferenceRate
              << " background_rate=" << kBackgroundRate << " workload=" << opt.workload
              << " seed=" << opt.seed << " seconds=" << opt.seconds
              << " trace=" << (opt.trace ? 1 : 0) << "\n";
    const Outcome out = run_workload(opt);
    print_metrics("end_to_end", out.end_to_end);
    print_metrics("detail", out.detail);
    print_metrics("per_layer", out.per_layer);
    if (out.attempted == 0) throw std::runtime_error("no operation attempted");
    std::cout << json_result(out, opt.trace ? out.per_layer : out.end_to_end)
              << std::endl;
  } catch (const std::exception& e) {
    std::cout.flush();
    std::cerr << "orion_perfbench: " << e.what() << "\n";
    return 1;
  }
  return 0;
}
