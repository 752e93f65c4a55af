// Span recorder of the traced benchmark run. Spans are recorded only in
// the benchmark's own files, around its calls into each module's public
// functions; the program under test is not instrumented. Records stay in
// per-thread memory and are written out once, when the run ends.
//
// A span has a name, start, end, its parent (the enclosing span on the
// same thread) and a trace id shared by every span of one request or
// cycle. With tracing disabled a Span costs one predictable branch.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common.hpp"

namespace perfbench::trace {

struct Record {
  const char* name = "";
  std::int64_t start_ns = 0;  // since the recorder's epoch
  std::int64_t end_ns = 0;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  // 0: a root span
  std::uint64_t trace_id = 0;
  std::uint32_t thread = 0;
};

void set_enabled(bool on);
bool enabled();

/// RAII span around one call. A non-zero trace_id starts a new trace
/// (a request or a cycle); zero inherits the enclosing span's.
class Span {
 public:
  explicit Span(const char* name, std::uint64_t trace_id = 0);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  bool active_ = false;
  const char* name_ = "";
  Clock::time_point start_;
  std::uint64_t id_ = 0;
  std::uint64_t parent_ = 0;
  std::uint64_t trace_id_ = 0;
  std::uint64_t saved_trace_ = 0;
};

/// Records a root span with explicit endpoints (an open-loop request,
/// timed from its scheduled send time).
void record(const char* name, Clock::time_point start, Clock::time_point end,
            std::uint64_t trace_id);

/// Every record of every thread, ordered by start. Call only while no
/// other thread is recording (after joining the threads that traced).
std::vector<Record> collect();

/// Writes the records as JSON lines; false when the file cannot be written.
bool write_jsonl(const std::string& path, const std::vector<Record>& records);

/// Per-name self time under the roots named `root`: each span's duration
/// minus the time its children cover. The self times of one tree add up
/// to its root's duration; `covered` leaves out the root's own time.
struct SelfTimes {
  std::size_t roots = 0;
  double root_seconds = 0;             // summed root durations
  std::map<std::string, double> self;  // name -> summed self seconds
  /// Per root: its trace id and the seconds its children cover.
  std::vector<std::pair<std::uint64_t, double>> covered;
};
SelfTimes self_times(const std::vector<Record>& records, const std::string& root);

}  // namespace perfbench::trace
