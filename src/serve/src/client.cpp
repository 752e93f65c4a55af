#include "orion/serve/client.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <stdexcept>
#include <utility>

namespace orion::serve {

namespace {

[[noreturn]] void fail_errno(const std::string& what) {
  throw std::runtime_error("serve client: " + what + ": " +
                           std::strerror(errno));
}

}  // namespace

Client::~Client() { close(); }

Client::Client(Client&& other) noexcept
    : fd_(std::exchange(other.fd_, -1)),
      inbuf_(std::move(other.inbuf_)),
      inpos_(std::exchange(other.inpos_, 0)) {}

Client& Client::operator=(Client&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = std::exchange(other.fd_, -1);
    inbuf_ = std::move(other.inbuf_);
    inpos_ = std::exchange(other.inpos_, 0);
  }
  return *this;
}

void Client::connect(const std::string& host, std::uint16_t port) {
  close();
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) fail_errno("socket");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    throw std::runtime_error("serve client: bad host address: " + host);
  }
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    const int saved = errno;
    ::close(fd);
    errno = saved;
    fail_errno("connect " + host + ":" + std::to_string(port));
  }
  // Query frames are small; latency matters more than coalescing.
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  fd_ = fd;
  inbuf_.clear();
  inpos_ = 0;
}

void Client::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  inbuf_.clear();
  inpos_ = 0;
}

void Client::write_all(const std::uint8_t* data, std::size_t size) {
  while (size > 0) {
    const ssize_t n = ::write(fd_, data, size);
    if (n < 0) {
      if (errno == EINTR) continue;
      fail_errno("write");
    }
    data += n;
    size -= static_cast<std::size_t>(n);
  }
}

void Client::send(const QueryRequest& request) {
  if (fd_ < 0) throw std::runtime_error("serve client: not connected");
  std::vector<std::uint8_t> frame;
  append_frame(frame, encode_request(request));
  write_all(frame.data(), frame.size());
}

std::vector<std::uint8_t> Client::recv_raw() {
  if (fd_ < 0) throw std::runtime_error("serve client: not connected");
  for (;;) {
    std::size_t begin = 0;
    std::size_t end = 0;
    const std::span<const std::uint8_t> rest =
        std::span<const std::uint8_t>(inbuf_).subspan(inpos_);
    const int got = try_extract_frame(rest, &begin, &end);
    if (got < 0) throw std::runtime_error("serve client: oversized frame");
    if (got > 0) {
      std::vector<std::uint8_t> payload(rest.begin() + begin, rest.begin() + end);
      // Advance the cursor; pipelined responses already buffered are
      // parsed in place, never shifted down frame by frame.
      inpos_ += end;
      if (inpos_ == inbuf_.size()) {
        inbuf_.clear();
        inpos_ = 0;
      }
      return payload;
    }
    // Only a partial frame is left: drop the consumed prefix once before
    // reading more.
    inbuf_.erase(inbuf_.begin(), inbuf_.begin() + static_cast<std::ptrdiff_t>(inpos_));
    inpos_ = 0;
    std::uint8_t chunk[4096];
    const ssize_t n = ::read(fd_, chunk, sizeof(chunk));
    if (n < 0) {
      if (errno == EINTR) continue;
      fail_errno("read");
    }
    if (n == 0) {
      throw std::runtime_error("serve client: connection closed by server");
    }
    inbuf_.insert(inbuf_.end(), chunk, chunk + n);
  }
}

QueryResponse Client::recv() {
  const std::vector<std::uint8_t> payload = recv_raw();
  QueryResponse response;
  std::string error;
  if (!decode_response(payload, response, error)) {
    throw std::runtime_error("serve client: undecodable response: " + error);
  }
  return response;
}

QueryResponse Client::call(const QueryRequest& request) {
  send(request);
  return recv();
}

std::vector<std::uint8_t> Client::call_raw(const QueryRequest& request) {
  send(request);
  return recv_raw();
}

}  // namespace orion::serve
