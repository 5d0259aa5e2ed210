// Multi-session CDN edge: one WiraServer instance per concurrent viewer,
// demultiplexed by QUIC connection id — the flash-crowd serving situation
// of bench/abl_crowd's contention experiment.
#pragma once

#include <map>
#include <memory>

#include "app/wira_server.h"

namespace wira::app {

class WiraEdge {
 public:
  WiraEdge(sim::EventLoop& loop, const media::LiveStream& stream,
           ServerConfig base_config)
      : loop_(loop), stream_(stream), base_config_(base_config) {}

  /// Creates the serving session for connection `conn_id`.  `send` is how
  /// this session's datagrams reach its viewer; `od_key` binds the
  /// session's cookies.
  WiraServer& add_session(quic::ConnectionId conn_id,
                          WiraServer::SendFn send, uint64_t od_key) {
    ServerConfig cfg = base_config_;
    cfg.conn_id = conn_id;
    cfg.expected_od_key = od_key;
    auto server =
        std::make_unique<WiraServer>(loop_, stream_, cfg, std::move(send));
    WiraServer& ref = *server;
    sessions_.emplace(conn_id, std::move(server));
    return ref;
  }

  /// Routes an incoming datagram to its session by connection id.
  void on_datagram(std::span<const uint8_t> data) {
    // Header: type u8, conn_id u64be — enough to route without a full
    // parse.
    if (data.size() < 9) return;
    ByteReader r(data);
    r.u8();
    const quic::ConnectionId id = r.u64be();
    auto it = sessions_.find(id);
    if (it != sessions_.end()) it->second->on_datagram(data);
  }

  WiraServer* session(quic::ConnectionId id) {
    auto it = sessions_.find(id);
    return it == sessions_.end() ? nullptr : it->second.get();
  }
  size_t session_count() const { return sessions_.size(); }

 private:
  sim::EventLoop& loop_;
  const media::LiveStream& stream_;
  ServerConfig base_config_;
  std::map<quic::ConnectionId, std::unique_ptr<WiraServer>> sessions_;
};

}  // namespace wira::app
