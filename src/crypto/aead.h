// ChaCha20-Poly1305 AEAD (RFC 8439 §2.8) plus a tiny deterministic key
// schedule for deriving the cookie-sealing key from a server master secret.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <span>
#include <string_view>
#include <vector>

#include "crypto/chacha20.h"
#include "crypto/poly1305.h"

namespace wira::crypto {

using Key = std::array<uint8_t, kChaChaKeySize>;
using Nonce = std::array<uint8_t, kChaChaNonceSize>;

/// Seals `plaintext` with additional data `aad`; output is
/// ciphertext || 16-byte tag.
std::vector<uint8_t> aead_seal(const Key& key, const Nonce& nonce,
                               std::span<const uint8_t> aad,
                               std::span<const uint8_t> plaintext);

/// Seals `buf[offset..]` in place and appends the 16-byte tag, so `buf`
/// ends as its first `offset` bytes || ciphertext || tag.  Reserve the
/// tag's room up front and nothing reallocates.
void aead_seal_in_place(const Key& key, const Nonce& nonce,
                        std::span<const uint8_t> aad,
                        std::vector<uint8_t>& buf, size_t offset);

/// Opens a sealed blob; returns nullopt on authentication failure
/// (truncated, tampered, or wrong key/nonce/aad).
std::optional<std::vector<uint8_t>> aead_open(
    const Key& key, const Nonce& nonce, std::span<const uint8_t> aad,
    std::span<const uint8_t> sealed);

/// Derives a labeled subkey from a master key (ChaCha20-based expansion —
/// a deliberately simple stand-in for HKDF that keeps this module
/// dependency-free while preserving domain separation by label).
Key derive_key(const Key& master, std::string_view label);

/// Builds a deterministic key from a short passphrase (tests/examples).
Key key_from_string(std::string_view s);

/// Builds a nonce from a 64-bit sequence number (low 8 bytes, LE).
Nonce nonce_from_u64(uint64_t seq);

}  // namespace wira::crypto
