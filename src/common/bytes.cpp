#include "common/bytes.h"

#include "common/error.h"

namespace spfe {
namespace {

int hex_digit(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  return -1;
}

}  // namespace

std::string hex_encode(BytesView data) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  out.reserve(data.size() * 2);
  for (std::uint8_t b : data) {
    out.push_back(kDigits[b >> 4]);
    out.push_back(kDigits[b & 0x0f]);
  }
  return out;
}

Bytes hex_decode(const std::string& hex) {
  if (hex.size() % 2 != 0) {
    throw SerializationError("hex_decode: odd-length input");
  }
  Bytes out;
  out.reserve(hex.size() / 2);
  for (std::size_t i = 0; i < hex.size(); i += 2) {
    const int hi = hex_digit(hex[i]);
    const int lo = hex_digit(hex[i + 1]);
    if (hi < 0 || lo < 0) {
      throw SerializationError("hex_decode: non-hex character");
    }
    out.push_back(static_cast<std::uint8_t>((hi << 4) | lo));
  }
  return out;
}

void append(Bytes& dst, BytesView src) { dst.insert(dst.end(), src.begin(), src.end()); }

Bytes xor_bytes(BytesView a, BytesView b) {
  if (a.size() != b.size()) {
    throw InvalidArgument("xor_bytes: size mismatch");
  }
  Bytes out(a.size());
  for (std::size_t i = 0; i < a.size(); ++i) out[i] = a[i] ^ b[i];
  return out;
}

}  // namespace spfe
