// TCP transport: stream connections with 4-byte length framing, plus
// raw send/recv for the paper's baseline measurements. The client
// libraries use this to reach the cluster listener (§3.2.1), and the
// raw path is the "TCP/IP producer-consumer" baseline in Experiments
// 1–3.
#pragma once

#include <cstdint>
#include <span>

#include "dstampede/common/bytes.hpp"
#include "dstampede/common/clock.hpp"
#include "dstampede/common/status.hpp"
#include "dstampede/transport/socket.hpp"

namespace dstampede::transport {

class TcpConnection {
 public:
  TcpConnection() = default;
  explicit TcpConnection(FdHandle fd) : fd_(std::move(fd)) {}

  // Connects to addr; TCP_NODELAY is set (interactive traffic).
  static Result<TcpConnection> Connect(const SockAddr& addr,
                                       Deadline deadline = Deadline::Infinite());

  bool valid() const { return fd_.valid(); }
  void Close() { fd_.Reset(); }

  // Framed messages: u32 big-endian length, then payload. `trailer`
  // follows the payload inside the same frame, so a caller can append
  // to a buffer it shares without modifying it.
  Status SendFrame(std::span<const std::uint8_t> payload,
                   std::span<const std::uint8_t> trailer = {});
  // Receives one frame into out (replacing its contents).
  Status RecvFrame(Buffer& out, Deadline deadline = Deadline::Infinite());

  // Raw stream I/O for baseline benchmarks.
  Status SendAll(std::span<const std::uint8_t> data);
  Status RecvExact(std::span<std::uint8_t> data,
                   Deadline deadline = Deadline::Infinite());

  int fd() const { return fd_.get(); }

 private:
  Status RecvSome(std::uint8_t* dst, std::size_t n, std::size_t& got,
                  Deadline deadline);
  FdHandle fd_;
};

class TcpListener {
 public:
  // Binds to loopback. port==0 picks a free port; bound_addr() tells
  // which.
  static Result<TcpListener> Bind(std::uint16_t port = 0);

  Result<TcpConnection> Accept(Deadline deadline = Deadline::Infinite());

  const SockAddr& bound_addr() const { return bound_; }
  bool valid() const { return fd_.valid(); }
  void Close() { fd_.Reset(); }

 private:
  FdHandle fd_;
  SockAddr bound_;
};

}  // namespace dstampede::transport
