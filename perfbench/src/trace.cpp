#include "trace.hpp"

#include <algorithm>
#include <atomic>
#include <fstream>
#include <memory>
#include <mutex>
#include <unordered_map>

namespace perfbench::trace {

namespace {

std::atomic<bool> g_enabled{false};
std::atomic<std::uint64_t> g_next_id{1};
std::atomic<std::uint32_t> g_next_thread{0};
const Clock::time_point g_epoch = Clock::now();

struct Buffer {
  std::uint32_t thread = 0;
  std::vector<Record> records;
};

std::mutex g_buffers_mu;
std::vector<std::unique_ptr<Buffer>> g_buffers;  // guarded by g_buffers_mu

/// The calling thread's buffer; owned by g_buffers so records outlive
/// the thread that wrote them.
Buffer& local_buffer() {
  thread_local Buffer* buffer = nullptr;
  if (buffer == nullptr) {
    auto owned = std::make_unique<Buffer>();
    owned->thread = g_next_thread.fetch_add(1);
    buffer = owned.get();
    std::lock_guard<std::mutex> lock(g_buffers_mu);
    g_buffers.push_back(std::move(owned));
  }
  return *buffer;
}

thread_local std::uint64_t t_current_span = 0;
thread_local std::uint64_t t_current_trace = 0;

std::int64_t since_epoch(Clock::time_point t) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(t - g_epoch)
      .count();
}

}  // namespace

void set_enabled(bool on) { g_enabled.store(on, std::memory_order_relaxed); }
bool enabled() { return g_enabled.load(std::memory_order_relaxed); }

Span::Span(const char* name, std::uint64_t trace_id) {
  if (!enabled()) return;
  active_ = true;
  name_ = name;
  id_ = g_next_id.fetch_add(1, std::memory_order_relaxed);
  parent_ = t_current_span;
  saved_trace_ = t_current_trace;
  trace_id_ = trace_id != 0 ? trace_id : t_current_trace;
  t_current_span = id_;
  t_current_trace = trace_id_;
  start_ = Clock::now();
}

Span::~Span() {
  if (!active_) return;
  const Clock::time_point end = Clock::now();
  Buffer& buffer = local_buffer();
  buffer.records.push_back({name_, since_epoch(start_), since_epoch(end), id_,
                            parent_, trace_id_, buffer.thread});
  t_current_span = parent_;
  t_current_trace = saved_trace_;
}

void record(const char* name, Clock::time_point start, Clock::time_point end,
            std::uint64_t trace_id) {
  if (!enabled()) return;
  Buffer& buffer = local_buffer();
  buffer.records.push_back(
      {name, since_epoch(start), since_epoch(end),
       g_next_id.fetch_add(1, std::memory_order_relaxed), 0, trace_id,
       buffer.thread});
}

std::vector<Record> collect() {
  std::vector<Record> all;
  {
    std::lock_guard<std::mutex> lock(g_buffers_mu);
    for (const auto& buffer : g_buffers) {
      all.insert(all.end(), buffer->records.begin(), buffer->records.end());
    }
  }
  std::sort(all.begin(), all.end(), [](const Record& a, const Record& b) {
    return a.start_ns != b.start_ns ? a.start_ns < b.start_ns : a.id < b.id;
  });
  return all;
}

bool write_jsonl(const std::string& path, const std::vector<Record>& records) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return false;
  for (const Record& r : records) {
    out << "{\"name\":\"" << r.name << "\",\"start_ns\":" << r.start_ns
        << ",\"end_ns\":" << r.end_ns << ",\"id\":" << r.id
        << ",\"parent\":" << r.parent << ",\"trace_id\":" << r.trace_id
        << ",\"thread\":" << r.thread << "}\n";
  }
  return static_cast<bool>(out);
}

SelfTimes self_times(const std::vector<Record>& records,
                     const std::string& root) {
  std::unordered_map<std::uint64_t, const Record*> by_id;
  std::unordered_map<std::uint64_t, double> child_seconds;
  for (const Record& r : records) {
    by_id[r.id] = &r;
    if (r.parent != 0) {
      child_seconds[r.parent] += 1e-9 * static_cast<double>(r.end_ns - r.start_ns);
    }
  }
  // A span belongs to the tree of its outermost ancestor.
  const auto root_of = [&](const Record& r) {
    const Record* cur = &r;
    while (cur->parent != 0) {
      const auto it = by_id.find(cur->parent);
      if (it == by_id.end()) break;
      cur = it->second;
    }
    return cur;
  };
  SelfTimes out;
  for (const Record& r : records) {
    const Record* top = root_of(r);
    if (root != top->name) continue;
    const double dur = 1e-9 * static_cast<double>(r.end_ns - r.start_ns);
    const auto kids = child_seconds.find(r.id);
    const double covered = kids == child_seconds.end() ? 0.0 : kids->second;
    if (&r == top) {
      ++out.roots;
      out.root_seconds += dur;
      out.covered.emplace_back(r.trace_id, covered);
    }
    out.self[r.name] += dur - covered;
  }
  return out;
}

}  // namespace perfbench::trace
