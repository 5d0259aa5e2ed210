#include "core/transport_cookie.h"

#include "util/bytes.h"

namespace wira::core {

namespace {
constexpr char kSealLabel[] = "wira-transport-cookie";
constexpr uint8_t kAad[] = {'h', 'x', 'q', 'o', 's', '-', 'v', '1'};
constexpr size_t kTripleSize = 10;  ///< HxId(1) HxLen(1) value(8)

size_t hxqos_triples_size(const HxQosRecord& record) {
  const size_t triples = 1 + (record.min_rtt != kNoTime) +
                         (record.max_bw > 0) +
                         (record.server_timestamp != kNoTime) +
                         (record.loss_rate > 0);
  return kTripleSize * triples;
}

/// Appends exactly hxqos_triples_size(record) bytes.
void write_hxqos_triples(const HxQosRecord& record, ByteWriter& w) {
  auto triple_u64 = [&w](HxId id, uint64_t value) {
    w.u8(static_cast<uint8_t>(id));
    w.u8(8);  // HxLen
    w.u64be(value);
  };
  if (record.min_rtt != kNoTime) {
    triple_u64(HxId::kMinRtt, static_cast<uint64_t>(to_us(record.min_rtt)));
  }
  if (record.max_bw > 0) triple_u64(HxId::kMaxBw, record.max_bw);
  if (record.server_timestamp != kNoTime) {
    triple_u64(HxId::kTimestamp,
               static_cast<uint64_t>(to_ms(record.server_timestamp)));
  }
  triple_u64(HxId::kOdKey, record.od_key);
  if (record.loss_rate > 0) {
    triple_u64(HxId::kLossRate,
               static_cast<uint64_t>(record.loss_rate * 1000.0));
  }
}

}  // namespace

std::vector<uint8_t> encode_hxqos_triples(const HxQosRecord& record) {
  ByteWriter w(hxqos_triples_size(record));
  write_hxqos_triples(record, w);
  return w.take();
}

std::optional<HxQosRecord> decode_hxqos_triples(
    std::span<const uint8_t> data) {
  ByteReader r(data);
  HxQosRecord rec;
  while (r.ok() && r.remaining() > 0) {
    const uint8_t id = r.u8();
    const uint8_t len = r.u8();
    if (!r.ok()) return std::nullopt;
    if (len == 8) {
      const uint64_t v = r.u64be();
      if (!r.ok()) return std::nullopt;
      switch (static_cast<HxId>(id)) {
        case HxId::kMinRtt:
          rec.min_rtt = microseconds(static_cast<int64_t>(v));
          break;
        case HxId::kMaxBw:
          rec.max_bw = v;
          break;
        case HxId::kTimestamp:
          rec.server_timestamp = milliseconds(static_cast<int64_t>(v));
          break;
        case HxId::kOdKey:
          rec.od_key = v;
          break;
        case HxId::kLossRate:
          rec.loss_rate = static_cast<double>(v) / 1000.0;
          break;
        default:
          break;  // unknown id, value already consumed
      }
    } else {
      if (!r.skip(len)) return std::nullopt;  // unknown-length triple
    }
  }
  if (!r.ok()) return std::nullopt;
  return rec;
}

CookieSealer::CookieSealer(const crypto::Key& master_key)
    : key_(crypto::derive_key(master_key, kSealLabel)) {}

std::vector<uint8_t> CookieSealer::seal(const HxQosRecord& record) {
  const uint64_t seq = next_nonce_++;
  // The triples are written after the sequence number and sealed where
  // they lie, into a buffer sized for the tag as well.
  ByteWriter w(8 + hxqos_triples_size(record) + crypto::kPolyTagSize);
  w.u64le(seq);
  write_hxqos_triples(record, w);
  std::vector<uint8_t> cookie = w.take();
  crypto::aead_seal_in_place(key_, crypto::nonce_from_u64(seq), kAad, cookie,
                             8);
  return cookie;
}

std::optional<HxQosRecord> CookieSealer::open(
    std::span<const uint8_t> sealed) const {
  if (sealed.size() < 8 + crypto::kPolyTagSize) return std::nullopt;
  ByteReader r(sealed);
  const uint64_t seq = r.u64le();
  const auto nonce = crypto::nonce_from_u64(seq);
  auto body = r.bytes(r.remaining());
  auto plaintext = crypto::aead_open(key_, nonce, kAad, body);
  if (!plaintext) return std::nullopt;
  return decode_hxqos_triples(*plaintext);
}

void ClientCookieStore::store(uint64_t od_pair, std::vector<uint8_t> sealed,
                              TimeNs now) {
  entries_[od_pair] = Entry{std::move(sealed), now};
}

std::optional<ClientCookieStore::Entry> ClientCookieStore::lookup(
    uint64_t od_pair) const {
  auto it = entries_.find(od_pair);
  if (it == entries_.end()) return std::nullopt;
  return it->second;
}

uint64_t od_pair_key(uint64_t client_id, uint64_t server_id,
                     uint32_t network_type) {
  uint64_t x = client_id * 0x9E3779B97F4A7C15ull ^
               server_id * 0xC2B2AE3D27D4EB4Full ^ network_type;
  x ^= x >> 33;
  x *= 0xFF51AFD7ED558CCDull;
  x ^= x >> 33;
  return x;
}

}  // namespace wira::core
