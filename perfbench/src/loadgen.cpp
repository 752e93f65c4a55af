#include "loadgen.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <deque>
#include <stdexcept>
#include <string>

#include "orion/netbase/crc32.hpp"
#include "trace.hpp"

namespace perfbench {

namespace {

constexpr auto kDrain = std::chrono::seconds(5);
constexpr std::size_t kResponseHeader = 14;  // magic, status, kind, generation

int connect_nonblocking(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw std::runtime_error(std::string("socket: ") + std::strerror(errno));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) != 0) {
    const std::string err = std::strerror(errno);
    ::close(fd);
    throw std::runtime_error("connect: " + err);
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL) | O_NONBLOCK);
  return fd;
}

std::uint64_t le64(const std::uint8_t* p) {
  std::uint64_t v = 0;
  for (int i = 7; i >= 0; --i) v = (v << 8) | p[i];
  return v;
}

double ms_between(Clock::time_point a, Clock::time_point b) {
  return 1e3 * seconds_between(a, b);
}

struct Pending {
  std::size_t request = 0;
  Clock::time_point due;
  std::uint64_t seq = 0;
};

struct Conn {
  int fd = -1;
  bool open = true;
  std::vector<std::uint8_t> out;
  std::size_t out_off = 0;
  std::vector<std::uint8_t> in;
  std::size_t in_off = 0;
  std::deque<Pending> fifo;
};

}  // namespace

void ResponseLog::add(std::size_t request, std::uint64_t generation,
                      const std::uint8_t* data, std::size_t size) {
  const std::uint64_t key =
      net::Crc32::of({data, size}) ^ (request * 0x9E3779B97F4A7C15ull) ^
      (generation * 0xC2B2AE3D27D4EB4Full);
  std::vector<std::size_t>& bucket = index_[key];
  for (const std::size_t i : bucket) {
    Entry& e = entries_[i];
    if (e.request == request && e.generation == generation &&
        e.payload.size() == size &&
        std::memcmp(e.payload.data(), data, size) == 0) {
      ++e.count;
      return;
    }
  }
  bucket.push_back(entries_.size());
  entries_.push_back({request, generation, {data, data + size}, 1});
}

void GenerationWatch::saw(std::uint64_t generation, Clock::time_point when) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    first_.emplace(generation, when);
  }
  std::uint64_t prev = max_seen_.load(std::memory_order_relaxed);
  while (prev < generation &&
         !max_seen_.compare_exchange_weak(prev, generation,
                                          std::memory_order_release)) {
  }
}

std::optional<Clock::time_point> GenerationWatch::first_seen(
    std::uint64_t generation) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = first_.find(generation);
  if (it == first_.end()) return std::nullopt;
  return it->second;
}

LoadResult run_open_loop(std::uint16_t port, const QueryMix& mix,
                         const LoadOptions& options, ResponseLog& log) {
  trace::Span window_span("loadgen.window");
  const Clock::time_point entered = Clock::now();
  // The default 50 us timer slack would make the sender itself late on
  // every short wait; the schedule needs precise wake-ups.
  ::prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
  LoadResult result;
  result.rate = options.rate;
  std::vector<Conn> conns(std::max<std::size_t>(1, options.connections));
  for (Conn& c : conns) c.fd = connect_nonblocking(port);

  Rng rng(options.seed);
  const Clock::time_point start = Clock::now();
  const auto window = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(kWindowSeconds));
  std::vector<CpuTicks> window_ticks{cpu_ticks()};  // at each window edge
  Clock::time_point next_edge = start + window;
  const Clock::time_point send_end =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(options.seconds));
  const auto gap = [&] {
    return std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(rng.exponential(options.rate)));
  };
  Clock::time_point next_due = start + gap();
  std::optional<Clock::time_point> window_end;
  std::uint64_t seq = 0;
  std::uint64_t max_generation = 0;
  std::vector<pollfd> fds(conns.size());
  if (options.stop == nullptr) {
    const auto expected = static_cast<std::size_t>(1.1 * options.rate * options.seconds) + 64;
    result.latency_ms.reserve(expected);
    result.due_s.reserve(expected);
    result.late_ms.reserve(expected);
    result.send_due_s.reserve(expected);
  }

  const auto still_sending = [&] {
    if (result.aborted) return false;
    if (options.stop != nullptr) return !options.stop->load(std::memory_order_acquire);
    return next_due < send_end;
  };

  const auto handle = [&](Conn& c, const std::uint8_t* payload, std::size_t len,
                          Clock::time_point now) {
    if (c.fifo.empty()) return;  // an answer nobody asked for: ignore
    const Pending p = c.fifo.front();
    c.fifo.pop_front();
    ++result.answered;
    result.latency_ms.push_back(ms_between(p.due, now));
    result.due_s.push_back(seconds_between(start, p.due));
    trace::record("loadgen.request", p.due, now, p.seq + 1);
    std::uint64_t generation = 0;
    const bool ok = len >= kResponseHeader && std::memcmp(payload, "OQR1", 4) == 0 &&
                    payload[4] == static_cast<std::uint8_t>(serve::Status::Ok);
    if (len >= kResponseHeader) generation = le64(payload + 6);
    if (!ok) ++result.not_ok;
    log.add(p.request, generation, payload, len);
    if (generation > max_generation && options.watch != nullptr) {
      max_generation = generation;
      options.watch->saw(generation, now);
    }
  };

  for (;;) {
    Clock::time_point now = Clock::now();
    if (now >= next_edge) {
      // One reading per edge passed, so entry k closes window k.
      const CpuTicks ticks = cpu_ticks();
      for (; now >= next_edge; next_edge += window) window_ticks.push_back(ticks);
    }
    {
      trace::Span span("loadgen.send");
      while (still_sending() && next_due <= now) {
        const std::size_t idx = mix.pick(rng.uniform());
        Conn& c = conns[seq % conns.size()];
        if (c.open) {
          const auto& frame = mix.frames[idx];
          c.out.insert(c.out.end(), frame.begin(), frame.end());
          c.fifo.push_back({idx, next_due, seq});
          result.late_ms.push_back(ms_between(next_due, now));
          result.send_due_s.push_back(seconds_between(start, next_due));
          ++result.sent;
        }
        ++seq;
        next_due += gap();
      }
      for (Conn& c : conns) {
        while (c.open && c.out_off < c.out.size()) {
          const ssize_t n = ::send(c.fd, c.out.data() + c.out_off,
                                   c.out.size() - c.out_off, MSG_NOSIGNAL);
          if (n < 0) {
            if (errno == EINTR) continue;
            if (errno != EAGAIN && errno != EWOULDBLOCK) c.open = false;
            break;
          }
          c.out_off += static_cast<std::size_t>(n);
        }
        if (c.out_off == c.out.size()) {
          c.out.clear();
          c.out_off = 0;
        }
      }
    }

    std::uint64_t outstanding = 0;
    for (const Conn& c : conns) outstanding += c.open ? c.fifo.size() : 0;
    result.backlog_max = std::max(result.backlog_max, outstanding);
    if (options.abort_backlog != 0 && outstanding > options.abort_backlog) {
      result.aborted = true;
    }
    const bool sending = still_sending();
    if (!sending && !window_end) {
      window_end = now;
      result.backlog_end = outstanding;
    }
    if (!sending && (outstanding == 0 || now > *window_end + kDrain)) break;

    Clock::duration wait = sending ? next_due - now : *window_end + kDrain - now;
    if (options.stop != nullptr && sending) {
      wait = std::min<Clock::duration>(wait, std::chrono::milliseconds(1));
    }
    wait = std::max<Clock::duration>(wait, Clock::duration::zero());
    for (std::size_t i = 0; i < conns.size(); ++i) {
      fds[i].fd = conns[i].open ? conns[i].fd : -1;
      fds[i].events = static_cast<short>(
          POLLIN | (conns[i].out_off < conns[i].out.size() ? POLLOUT : 0));
      fds[i].revents = 0;
    }
    const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(wait).count();
    const timespec ts{static_cast<time_t>(ns / 1000000000),
                      static_cast<long>(ns % 1000000000)};
    int ready = 0;
    {
      trace::Span span("loadgen.wait");
      ready = ::ppoll(fds.data(), fds.size(), &ts, nullptr);
    }
    if (ready <= 0) continue;

    trace::Span span("loadgen.recv");
    now = Clock::now();
    for (std::size_t i = 0; i < conns.size(); ++i) {
      Conn& c = conns[i];
      if (!c.open || (fds[i].revents & (POLLIN | POLLERR | POLLHUP)) == 0) continue;
      std::uint8_t chunk[65536];
      for (;;) {
        const ssize_t n = ::read(c.fd, chunk, sizeof chunk);
        if (n < 0) {
          if (errno == EINTR) continue;
          if (errno != EAGAIN && errno != EWOULDBLOCK) c.open = false;
          break;
        }
        if (n == 0) {
          c.open = false;
          break;
        }
        c.in.insert(c.in.end(), chunk, chunk + n);
        if (static_cast<std::size_t>(n) < sizeof chunk) break;
      }
      while (c.in.size() - c.in_off >= 4) {
        std::uint32_t len = 0;
        for (int b = 3; b >= 0; --b) len = (len << 8) | c.in[c.in_off + b];
        if (len > serve::kMaxFramePayload) {
          c.open = false;
          break;
        }
        if (c.in.size() - c.in_off - 4 < len) break;
        handle(c, c.in.data() + c.in_off + 4, len, now);
        c.in_off += 4 + len;
      }
      if (c.in_off > 0 && 2 * c.in_off >= c.in.size()) {
        c.in.erase(c.in.begin(), c.in.begin() + static_cast<std::ptrdiff_t>(c.in_off));
        c.in_off = 0;
      }
    }
  }

  for (Conn& c : conns) {
    result.unanswered += c.fifo.size();
    ::close(c.fd);
  }
  window_ticks.push_back(cpu_ticks());
  for (std::size_t k = 1; k < window_ticks.size(); ++k) {
    result.window_steal.push_back(steal_share(window_ticks[k - 1], window_ticks[k]));
  }
  result.window_s = seconds_between(start, window_end.value_or(Clock::now()));
  result.elapsed_s = seconds_since(entered);
  return result;
}

}  // namespace perfbench
