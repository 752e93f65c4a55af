// The three workloads and the traced per-layer probes.
#pragma once

#include <cstdint>
#include <string>

#include "common.hpp"

namespace perfbench {

/// Open-loop query rates, fixed once from a sweep on the reference host
/// (perfbench/HOST.json) and never recalibrated per run.
constexpr double kQueryLadder[] = {25000, 50000, 100000, 200000};
constexpr double kQueryLimitMs = 10.0;     // p99 latency limit of a rung
constexpr double kReferenceRate = 20000;   // query workload's latency rate
constexpr double kBackgroundRate = 1000;   // refresh / ingest check rate

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string workdir;  // work files (archives, spans) inside the checkout
};

struct Outcome {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  Report end_to_end;  // the BENCHMARK.json end_to_end metrics
  Report per_layer;   // the BENCHMARK.json per_layer metrics
  Report detail;      // per-workload names of those figures, printed only
};

/// Runs one workload; prints progress and checks to stdout.
Outcome run_workload(const Options& options);

bool known_workload(const std::string& name);

}  // namespace perfbench
