// Core QUIC-dialect constants and identifiers.
//
// The stack models the user-space gQUIC lineage the paper builds on
// (LSQUIC Q043): a tag-value crypto handshake (CHLO/REJ/SHLO), a single
// packet-number space, stream frames, and QUIC-style loss recovery.  It is
// intentionally simplified — no TLS, no flow control windows beyond the
// congestion controller — while keeping every extension point Wira touches.
#pragma once

#include <cstddef>
#include <cstdint>

#include "util/units.h"

namespace wira::quic {

using ConnectionId = uint64_t;
using StreamId = uint64_t;
using PacketNumber = uint64_t;

/// Maximum packet payload (frames) per datagram; aligned with cc::kMss.
inline constexpr size_t kMaxPacketPayload = 1400;
/// Approximate per-datagram header overhead we account to the wire.
inline constexpr size_t kPacketOverhead = 60;

/// Stream used by the client to send its play request.
inline constexpr StreamId kRequestStream = 1;
/// Stream used by the server to push the live-stream response.
inline constexpr StreamId kResponseStream = 3;

/// Packet types (first header byte).
enum class PacketType : uint8_t {
  kInitial = 0x01,    ///< carries CHLO / REJ / SHLO crypto messages
  kZeroRtt = 0x03,    ///< 0-RTT application data
  kOneRtt = 0x04,     ///< established-path application data
  kHxQos = 0x1f,      ///< Wira Hx_QoS synchronization packet (§IV-B)
};

/// Loss-detection constants (RFC 9002 defaults).
inline constexpr int kPacketReorderingThreshold = 3;
inline constexpr double kTimeReorderingFraction = 9.0 / 8.0;
inline constexpr TimeNs kInitialRtt = milliseconds(100);
inline constexpr TimeNs kGranularity = milliseconds(1);
inline constexpr TimeNs kMaxAckDelay = milliseconds(25);
/// ACK every Nth retransmittable packet; the rest wait for kMaxAckDelay.
inline constexpr int kAckPacketTolerance = 2;
/// Packets the pacer lets out back to back.
inline constexpr size_t kPacerBurst = 2;

}  // namespace wira::quic
