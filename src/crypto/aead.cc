#include "crypto/aead.h"

#include <cstring>

namespace wira::crypto {

namespace {

void store_le64(uint8_t* p, uint64_t v) {
  for (int i = 0; i < 8; ++i) p[i] = static_cast<uint8_t>(v >> (8 * i));
}

/// RFC 8439 §2.6: the one-time Poly1305 key is the first 32 bytes of the
/// ChaCha20 keystream at counter 0.
std::array<uint8_t, kPolyKeySize> poly_key_gen(const Key& key,
                                               const Nonce& nonce) {
  uint8_t block[64];
  chacha20_block(key, 0, nonce, std::span<uint8_t, 64>(block));
  std::array<uint8_t, kPolyKeySize> out;
  std::memcpy(out.data(), block, kPolyKeySize);
  return out;
}

size_t pad16(size_t n) { return (16 - n % 16) % 16; }

/// mac_data = aad || pad16 || ct || pad16 || len(aad) || len(ct),
/// zero-initialized at its final size, then filled.
std::vector<uint8_t> mac_input(std::span<const uint8_t> aad,
                               std::span<const uint8_t> ct) {
  const size_t ct_at = aad.size() + pad16(aad.size());
  const size_t lens_at = ct_at + ct.size() + pad16(ct.size());
  std::vector<uint8_t> m(lens_at + 16);
  if (!aad.empty()) std::memcpy(m.data(), aad.data(), aad.size());
  if (!ct.empty()) std::memcpy(m.data() + ct_at, ct.data(), ct.size());
  store_le64(m.data() + lens_at, aad.size());
  store_le64(m.data() + lens_at + 8, ct.size());
  return m;
}

}  // namespace

void aead_seal_in_place(const Key& key, const Nonce& nonce,
                        std::span<const uint8_t> aad,
                        std::vector<uint8_t>& buf, size_t offset) {
  const std::span<uint8_t> text = std::span<uint8_t>(buf).subspan(offset);
  chacha20_xor(key, 1, nonce, text);
  const auto tag = poly1305(poly_key_gen(key, nonce), mac_input(aad, text));
  buf.insert(buf.end(), tag.begin(), tag.end());
}

std::vector<uint8_t> aead_seal(const Key& key, const Nonce& nonce,
                               std::span<const uint8_t> aad,
                               std::span<const uint8_t> plaintext) {
  std::vector<uint8_t> out;
  out.reserve(plaintext.size() + kPolyTagSize);
  out.assign(plaintext.begin(), plaintext.end());
  aead_seal_in_place(key, nonce, aad, out, 0);
  return out;
}

std::optional<std::vector<uint8_t>> aead_open(
    const Key& key, const Nonce& nonce, std::span<const uint8_t> aad,
    std::span<const uint8_t> sealed) {
  if (sealed.size() < kPolyTagSize) return std::nullopt;
  const auto ct = sealed.first(sealed.size() - kPolyTagSize);
  const auto expect = poly1305(poly_key_gen(key, nonce), mac_input(aad, ct));
  std::span<const uint8_t, kPolyTagSize> got(
      sealed.data() + ct.size(), kPolyTagSize);
  if (!tags_equal(expect, got)) return std::nullopt;

  std::vector<uint8_t> pt(ct.begin(), ct.end());
  chacha20_xor(key, 1, nonce, pt);
  return pt;
}

Key derive_key(const Key& master, std::string_view label) {
  // Domain-separated expansion: keystream of the master key with a nonce
  // derived from the label bytes.
  Nonce nonce{};
  for (size_t i = 0; i < label.size(); ++i) {
    nonce[i % nonce.size()] ^= static_cast<uint8_t>(label[i] + i);
  }
  uint8_t block[64];
  chacha20_block(master, 0x4b444631 /* "KDF1" */, nonce,
                 std::span<uint8_t, 64>(block));
  Key out;
  std::memcpy(out.data(), block, out.size());
  return out;
}

Key key_from_string(std::string_view s) {
  Key k{};
  for (size_t i = 0; i < s.size(); ++i) {
    k[i % k.size()] = static_cast<uint8_t>(k[i % k.size()] * 31 + s[i]);
  }
  // One mixing round through the block function for diffusion.
  return derive_key(k, "key_from_string");
}

Nonce nonce_from_u64(uint64_t seq) {
  Nonce n{};
  store_le64(n.data() + 4, seq);
  return n;
}

}  // namespace wira::crypto
