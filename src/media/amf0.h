// Minimal AMF0 encoder/decoder — enough for FLV onMetaData script tags
// (string, number, boolean, ECMA array).
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <variant>

#include "util/bytes.h"

namespace wira::media {

using Amf0Value = std::variant<double, bool, std::string>;

/// Encodes `name` (AMF0 string) followed by an ECMA array of properties —
/// the layout of an FLV onMetaData script tag body.
std::vector<uint8_t> amf0_encode_metadata(
    const std::string& name, const std::map<std::string, Amf0Value>& props);

/// One numeric onMetaData property.
struct Amf0Number {
  std::string_view key;
  double value;
};
/// Byte size of amf0_write_numeric_metadata's output.
size_t amf0_numeric_metadata_size(std::string_view name,
                                  std::span<const Amf0Number> props);
/// Appends what amf0_encode_metadata writes for numeric `props`, in the
/// order given (amf0_encode_metadata's map orders keys ascending), with no
/// intermediate buffer.
void amf0_write_numeric_metadata(ByteWriter& w, std::string_view name,
                                 std::span<const Amf0Number> props);

/// Decodes a script tag body written by amf0_encode_metadata.  Returns
/// nullopt on malformed input.
struct Amf0Metadata {
  std::string name;
  std::map<std::string, Amf0Value> props;
};
std::optional<Amf0Metadata> amf0_decode_metadata(
    std::span<const uint8_t> body);

}  // namespace wira::media
