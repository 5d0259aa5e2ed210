// Non-blocking UDP socket wrapper for the real-socket runtime
// (DESIGN.md §6).  Two usage shapes, matching the two ends of a session:
//
//   - wira_proxyd opens one *bound* socket per scheme and routes
//     sessions by peer address (recv_from / send_to);
//   - wira_loadgen opens one *connected* socket per session, so each
//     session owns a distinct source port — the proxyd side's demux key
//     — and plain send/recv suffice.
//
// Addresses resolve through getaddrinfo (IPv4), so "0.0.0.0", names and
// dotted quads all work.  All sockets are non-blocking: the epoll
// runtime drives them, and a full send buffer drops the datagram exactly
// like a congested link would (UDP semantics; QUIC recovery owns it).
#pragma once

#include <netinet/in.h>
#include <sys/socket.h>

#include <cstdint>
#include <span>
#include <string>

#include "util/units.h"

namespace wira::net {

/// An IPv4 peer address.  key() packs it into the integer a
/// multi-session server routes by (app::WiraEdge); from_key() unpacks it.
struct PeerAddr {
  sockaddr_in sa{};

  bool operator==(const PeerAddr& o) const { return key() == o.key(); }
  uint64_t key() const {
    return (static_cast<uint64_t>(sa.sin_addr.s_addr) << 16) | sa.sin_port;
  }
  static PeerAddr from_key(uint64_t key) {
    PeerAddr p;
    p.sa.sin_family = AF_INET;
    p.sa.sin_addr.s_addr = static_cast<uint32_t>(key >> 16);
    p.sa.sin_port = static_cast<uint16_t>(key);
    return p;
  }
  /// "ip_port" — filesystem-safe, used to name per-session trace files
  /// identically from both processes.
  std::string file_tag() const;
  /// "ip:port" for log lines.
  std::string display() const;
};

class UdpSocket {
 public:
  UdpSocket() = default;
  ~UdpSocket();
  UdpSocket(const UdpSocket&) = delete;
  UdpSocket& operator=(const UdpSocket&) = delete;
  UdpSocket(UdpSocket&& o) noexcept : fd_(o.fd_) { o.fd_ = -1; }
  UdpSocket& operator=(UdpSocket&& o) noexcept;

  /// Binds addr:port (port 0 = ephemeral), non-blocking, with a receive
  /// buffer sized for handshake storms (rcvbuf_bytes; 0 = kernel
  /// default).  False + *error on failure.
  bool open_bound(const std::string& addr, uint16_t port, int rcvbuf_bytes,
                  std::string* error);
  /// Binds an ephemeral local port and connects to addr:port, so the
  /// kernel demuxes replies to this fd.  False + *error on failure.
  bool open_connected(const std::string& addr, uint16_t port,
                      std::string* error);
  void close();

  int fd() const { return fd_; }
  bool ok() const { return fd_ >= 0; }
  /// Local address after open_* (the session's demux identity).
  PeerAddr local_addr() const;
  uint16_t local_port() const;

  /// Sends to the connected peer.  Short/failed sends are dropped
  /// datagrams by design (see file header).
  void send(std::span<const uint8_t> datagram);
  void send_to(const PeerAddr& peer, std::span<const uint8_t> datagram);
  /// One datagram into buf; returns its length, or -1 when the socket is
  /// drained (EAGAIN) or the kernel reports a transient error.  `peer`
  /// may be null for connected sockets.
  ssize_t recv_from(uint8_t* buf, size_t cap, PeerAddr* peer);

 private:
  int fd_ = -1;
};

}  // namespace wira::net
