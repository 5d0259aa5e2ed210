#include "app/edge.h"

#include "quic/handshake.h"
#include "quic/packet.h"

namespace wira::app {

WiraEdge::WiraEdge(sim::EventLoop& loop, const media::LiveStream& stream,
                   ServerConfig base_config, SendFn send, OpenFn open)
    : loop_(loop),
      stream_(stream),
      base_config_(std::move(base_config)),
      send_(std::move(send)),
      open_fn_(std::move(open)) {}

WiraEdge::~WiraEdge() {
  if (idle_timer_) loop_.cancel(*idle_timer_);
}

WiraServer& WiraEdge::add_session(uint64_t key, uint64_t od_key) {
  const auto it = open_session(key, od_key);
  routes_[key] = it;
  return *it->server;
}

WiraEdge::SessionList::iterator WiraEdge::open_session(uint64_t key,
                                                       uint64_t od_key) {
  ServerConfig cfg = base_config_;
  cfg.expected_od_key = od_key;
  Session& s = open_.emplace_back();
  const auto it = std::prev(open_.end());
  s.key = key;
  s.last_heard = loop_.now();
  s.server.emplace(loop_, stream_, cfg,
                   [this, key](std::vector<uint8_t> dgram) {
                     send_(key, std::move(dgram));
                   });
  s.server->set_on_finished([this, it] { schedule_evict(it); });
  if (open_fn_) s.sink = open_fn_(key, *s.server);
  if (s.sink) s.server->set_tracer(s.sink.get());
  counters_.served++;
  arm_idle_timer();
  return it;
}

void WiraEdge::on_datagram(uint64_t key, std::span<const uint8_t> data) {
  auto routed = routes_.find(key);
  if (routed == routes_.end()) {
    if (!is_client_chlo(data)) {
      counters_.dropped++;
      return;
    }
    routed =
        routes_.emplace(key, open_session(key, base_config_.expected_od_key))
            .first;
  }
  const SessionList::iterator it = routed->second;
  it->last_heard = loop_.now();
  open_.splice(open_.end(), open_, it);
  it->server->on_datagram(data);
  if (it->server->connection().closed()) retire(routed);
}

std::optional<uint64_t> WiraEdge::conn_id_of(std::span<const uint8_t> data) {
  // Header: type u8, conn_id u64be — enough to route without a full parse.
  if (data.size() < 9) return std::nullopt;
  ByteReader r(data);
  r.u8();
  return r.u64be();
}

WiraServer* WiraEdge::session(uint64_t key) {
  const auto routed = routes_.find(key);
  return routed == routes_.end() ? nullptr : &*routed->second->server;
}

bool WiraEdge::is_client_chlo(std::span<const uint8_t> data) {
  const auto packet = quic::parse_packet(data, &loop_.arena());
  if (!packet || packet->type != quic::PacketType::kInitial) return false;
  for (const quic::Frame& f : packet->frames) {
    const auto* crypto = std::get_if<quic::CryptoFrame>(&f);
    if (crypto == nullptr) continue;
    const auto msg = quic::parse_handshake(crypto->data);
    if (msg && msg->msg_tag == quic::kTagCHLO) return true;
  }
  return false;
}

void WiraEdge::retire(
    std::unordered_map<uint64_t, SessionList::iterator>::iterator routed) {
  const SessionList::iterator it = routed->second;
  routes_.erase(routed);
  closing_.splice(closing_.end(), open_, it);
  // With no open session left, the idle timer has nothing to watch.
  if (open_.empty() && idle_timer_) {
    loop_.cancel(*idle_timer_);
    idle_timer_.reset();
  }
  // A server with nothing pending is finished now; any other calls its
  // on_finished hook when its last pending event has run.
  if (it->server->finished()) schedule_evict(it);
}

void WiraEdge::schedule_evict(SessionList::iterator it) {
  loop_.schedule_in(0, [this, it] {
    closing_.erase(it);
    counters_.evicted++;
  });
}

void WiraEdge::arm_idle_timer() {
  if (idle_timer_ || open_.empty()) return;
  idle_timer_ =
      loop_.schedule_at(open_.front().last_heard + kIdleTimeout, [this] {
        idle_timer_.reset();
        close_idle_sessions();
      });
}

void WiraEdge::close_idle_sessions() {
  while (!open_.empty() &&
         open_.front().last_heard + kIdleTimeout <= loop_.now()) {
    Session& s = open_.front();
    s.server->connection().close(kIdleCloseCode, "idle timeout");
    counters_.idle_closed++;
    retire(routes_.find(s.key));
  }
  arm_idle_timer();
}

}  // namespace wira::app
