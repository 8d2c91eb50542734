// Byte-string utilities shared by every module.
//
// A `Bytes` value is the universal wire format: protocol messages, hash
// inputs, serialized ciphertexts and field elements all travel as `Bytes`.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace spfe {

using Bytes = std::vector<std::uint8_t>;
using BytesView = std::span<const std::uint8_t>;

// Hex encoding with lowercase digits; `hex_decode` accepts both cases and
// throws SerializationError on odd length or non-hex characters.
std::string hex_encode(BytesView data);
Bytes hex_decode(const std::string& hex);

// Appends `src` to `dst` (convenience for message assembly).
void append(Bytes& dst, BytesView src);

// XOR of equal-length byte strings; throws InvalidArgument on size mismatch.
Bytes xor_bytes(BytesView a, BytesView b);

}  // namespace spfe
