// The benchmark's own open-loop OQP1 sender: one thread, non-blocking
// sockets over a few persistent connections, requests sent on a seeded
// Poisson schedule whatever the daemon does. Each request is timed from
// the moment it was due, so a stall also charges the requests queued
// behind it; how late the sender itself ran is reported separately.
//
// Responses are not checked in the timed loop: each distinct payload is
// kept once (with a count) for the byte-identity gate afterwards.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <vector>

#include "common.hpp"
#include "mix.hpp"

namespace perfbench {

/// Every distinct (request, generation, payload) the client received.
class ResponseLog {
 public:
  struct Entry {
    std::size_t request = 0;
    std::uint64_t generation = 0;
    std::vector<std::uint8_t> payload;
    std::uint64_t count = 0;
  };

  void add(std::size_t request, std::uint64_t generation,
           const std::uint8_t* data, std::size_t size);
  const std::vector<Entry>& entries() const { return entries_; }

 private:
  std::vector<Entry> entries_;
  std::unordered_map<std::uint64_t, std::vector<std::size_t>> index_;
};

/// First time a response carrying each generation arrived (written by
/// the sender thread, read by the refresh loop).
class GenerationWatch {
 public:
  void saw(std::uint64_t generation, Clock::time_point when);
  std::uint64_t max_seen() const {
    return max_seen_.load(std::memory_order_acquire);
  }
  std::optional<Clock::time_point> first_seen(std::uint64_t generation) const;

 private:
  std::atomic<std::uint64_t> max_seen_{0};
  mutable std::mutex mu_;
  std::map<std::uint64_t, Clock::time_point> first_;  // guarded by mu_
};

/// Latency figures are taken per window of this length of the schedule.
constexpr double kWindowSeconds = 0.25;

struct LoadOptions {
  double rate = 1000;           // offered requests per second
  double seconds = 1;           // sending window (unless `stop` is set)
  std::size_t connections = 4;
  std::uint64_t seed = 1;
  /// Stop sending once this many requests are due but unanswered: the
  /// rate is far beyond what the daemon sustains (0: never).
  std::uint64_t abort_backlog = 0;
  /// When set, send until it becomes true instead of for `seconds`.
  const std::atomic<bool>* stop = nullptr;
  GenerationWatch* watch = nullptr;
};

struct LoadResult {
  double rate = 0;
  double window_s = 0;             // sending window actually used
  double elapsed_s = 0;            // connect to close, drain included
  std::vector<double> latency_ms;  // per answer, from its scheduled time
  std::vector<double> due_s;       // per answer, scheduled time since start
  std::vector<double> late_ms;     // per send, behind its scheduled time
  std::vector<double> send_due_s;  // per send, scheduled time since start
  /// Per kWindowSeconds window of the schedule: the share of the
  /// machine's CPU time the hypervisor stole during it.
  std::vector<double> window_steal;
  std::uint64_t sent = 0;
  std::uint64_t answered = 0;
  std::uint64_t not_ok = 0;      // answered with a non-Ok status
  std::uint64_t unanswered = 0;  // sent, no answer within the drain time
  std::uint64_t backlog_max = 0;  // peak due-but-unanswered requests
  std::uint64_t backlog_end = 0;  // due-but-unanswered when sending ended
  bool aborted = false;

  double achieved_qps() const {
    return window_s > 0 ? static_cast<double>(answered) / window_s : 0;
  }
  std::uint64_t failed() const { return not_ok + unanswered; }
};

LoadResult run_open_loop(std::uint16_t port, const QueryMix& mix,
                         const LoadOptions& options, ResponseLog& log);

}  // namespace perfbench
