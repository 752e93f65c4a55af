// Blocking OQP1 client for orion_serve: one TCP connection, typed
// call() for the simple case plus split send()/recv() so callers can
// pipeline many requests down the same connection (bench_serve's batched
// mode; the daemon answers strictly in request order).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "orion/serve/protocol.hpp"

namespace orion::serve {

class Client {
 public:
  Client() = default;
  ~Client();

  Client(Client&& other) noexcept;
  Client& operator=(Client&& other) noexcept;
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  /// Connects to host:port. Throws std::runtime_error on failure.
  void connect(const std::string& host, std::uint16_t port);
  bool connected() const { return fd_ >= 0; }
  void close();

  /// Encode + send + wait for the matching response. Throws
  /// std::runtime_error on socket error or undecodable response.
  QueryResponse call(const QueryRequest& request);

  /// Like call(), but hands back the response's raw frame payload —
  /// the byte-identity side of bench_serve's equivalence gate.
  std::vector<std::uint8_t> call_raw(const QueryRequest& request);

  /// Pipelining halves: send() enqueues a frame without waiting;
  /// recv()/recv_raw() block for the next in-order response.
  void send(const QueryRequest& request);
  std::vector<std::uint8_t> recv_raw();
  QueryResponse recv();

 private:
  void write_all(const std::uint8_t* data, std::size_t size);

  int fd_ = -1;
  std::vector<std::uint8_t> inbuf_;
  std::size_t inpos_ = 0;  // parse cursor: inbuf_[0, inpos_) is consumed
};

}  // namespace orion::serve
