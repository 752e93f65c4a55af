#include "common.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <numeric>
#include <string>

namespace perfbench {

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double rank = q * static_cast<double>(values.size() - 1);
  const auto idx = static_cast<std::size_t>(std::floor(rank + 1e-9));
  return values[std::min(idx, values.size() - 1)];
}

double median(const std::vector<double>& values) {
  return quantile(values, 0.5);
}

double mean(const std::vector<double>& values) {
  if (values.empty()) return 0;
  return std::accumulate(values.begin(), values.end(), 0.0) /
         static_cast<double>(values.size());
}

Tail tail_of(const std::vector<double>& values) {
  Tail tail;
  tail.samples = values.size();
  if (values.empty()) return tail;
  std::vector<double> sorted = values;
  std::sort(sorted.begin(), sorted.end());
  const std::size_t n = sorted.size();
  // Index n-11 leaves exactly ten samples above it; p99 leaves at least
  // ten once n >= 1000. Smaller samples fall back to the median.
  std::size_t idx = n / 2;
  if (n >= 21) {
    const auto p99 =
        static_cast<std::size_t>(std::floor(0.99 * static_cast<double>(n - 1)));
    idx = std::min(p99, n - 11);
  }
  tail.value = sorted[idx];
  tail.percentile =
      n == 1 ? 50.0
             : 100.0 * static_cast<double>(idx) / static_cast<double>(n - 1);
  return tail;
}

double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MiB
    }
  }
  return 0;
}

CpuTicks cpu_ticks() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  in >> cpu;
  CpuTicks t;
  if (cpu != "cpu") return t;
  // user nice system idle iowait irq softirq steal (guest time is
  // already inside user and nice).
  for (int field = 0; field < 8; ++field) {
    std::uint64_t v = 0;
    if (!(in >> v)) return CpuTicks{};
    t.total += v;
    if (field == 7) t.steal = v;
  }
  return t;
}

double steal_share(const CpuTicks& from, const CpuTicks& to) {
  if (to.total <= from.total) return 0;
  return static_cast<double>(to.steal - from.steal) /
         static_cast<double>(to.total - from.total);
}

void Digest::bytes(std::span<const std::uint8_t> data) {
  for (const std::uint8_t b : data) {
    state_ ^= b;
    state_ *= 0x100000001b3ull;
  }
}

void Digest::u64(std::uint64_t v) {
  std::uint8_t le[8];
  for (int i = 0; i < 8; ++i) le[i] = static_cast<std::uint8_t>(v >> (8 * i));
  bytes(le);
}

void Report::set(const std::string& name, double value,
                 const std::string& unit) {
  for (Metric& m : metrics_) {
    if (m.name == name) {
      m.value = value;
      m.unit = unit;
      return;
    }
  }
  metrics_.push_back({name, value, unit});
}

const Metric* Report::find(const std::string& name) const {
  for (const Metric& m : metrics_) {
    if (m.name == name) return &m;
  }
  return nullptr;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace perfbench
