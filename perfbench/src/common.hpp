// Shared helpers of the orionscan benchmark program: clocks, order
// statistics, a canonical 64-bit digest and the metric report.
#pragma once

#include <chrono>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace orion {}

namespace perfbench {

// The benchmark drives every orionscan module: their namespaces (net,
// pkt, telescope, store, serve, ...) are used unqualified.
using namespace orion;

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
inline double seconds_since(Clock::time_point a) {
  return seconds_between(a, Clock::now());
}

/// Nearest-rank quantile of `values` (copied and sorted); 0 when empty.
double quantile(std::vector<double> values, double q);
double median(const std::vector<double>& values);
double mean(const std::vector<double>& values);

/// The highest percentile that keeps at least ten samples beyond it,
/// capped at p99: what a sample of `n` supports as its tail.
struct Tail {
  double value = 0;
  double percentile = 0;  // in (0, 100)
  std::size_t samples = 0;
};
Tail tail_of(const std::vector<double>& values);

/// Peak resident set size of this process (VmHWM), in MiB.
double peak_rss_mb();

/// The machine's CPU time so far from the aggregate line of /proc/stat,
/// in clock ticks: all of it, and the part stolen by the hypervisor.
/// Zeros where /proc/stat cannot be read.
struct CpuTicks {
  std::uint64_t total = 0;
  std::uint64_t steal = 0;
};
CpuTicks cpu_ticks();

/// Share of the machine's CPU time stolen between two readings: how much
/// other tenants of a shared host held the vCPUs while a run measured.
double steal_share(const CpuTicks& from, const CpuTicks& to);

/// FNV-1a over canonical little-endian fields: the digest the ingest gate
/// compares between shard counts.
class Digest {
 public:
  void bytes(std::span<const std::uint8_t> data);
  void u64(std::uint64_t v);
  std::uint64_t value() const { return state_; }

 private:
  std::uint64_t state_ = 0xcbf29ce484222325ull;
};

/// One printed metric: name, value, unit.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// Ordered metric report; `set` replaces a metric of the same name.
class Report {
 public:
  void set(const std::string& name, double value, const std::string& unit);
  const std::vector<Metric>& metrics() const { return metrics_; }
  const Metric* find(const std::string& name) const;

 private:
  std::vector<Metric> metrics_;
};

/// Number formatted with all its significant digits, JSON-safe.
std::string json_number(double v);

}  // namespace perfbench
