#include "crypto/prg.h"

#include <random>

#include "common/error.h"
#include "crypto/sha256.h"

namespace spfe::crypto {
namespace {

constexpr std::array<std::uint8_t, ChaCha20::kNonceSize> kPrgNonce = {'s', 'p', 'f', 'e', '-',
                                                                      'p', 'r', 'g', 0,   0,
                                                                      0,   0};

Prg::Seed seed_from_label(const std::string& label) {
  const auto digest = Sha256::hash(
      BytesView(reinterpret_cast<const std::uint8_t*>(label.data()), label.size()));
  Prg::Seed s;
  std::copy(digest.begin(), digest.end(), s.begin());
  return s;
}

}  // namespace

Prg::Prg(const Seed& seed) : seed_(seed), stream_(seed, kPrgNonce) {}

Prg::Prg(const std::string& label) : Prg(seed_from_label(label)) {}

Prg::Seed Prg::random_seed() {
  std::random_device rd;
  Seed s;
  for (std::size_t i = 0; i < s.size(); i += 4) {
    const std::uint32_t v = rd();
    s[i] = static_cast<std::uint8_t>(v);
    s[i + 1] = static_cast<std::uint8_t>(v >> 8);
    s[i + 2] = static_cast<std::uint8_t>(v >> 16);
    s[i + 3] = static_cast<std::uint8_t>(v >> 24);
  }
  return s;
}

void Prg::fill(std::uint8_t* out, std::size_t len) { stream_.keystream(out, len); }

Bytes Prg::bytes(std::size_t len) {
  Bytes out(len);
  fill(out.data(), len);
  return out;
}

std::uint64_t Prg::u64() {
  std::uint8_t b[8];
  fill(b, 8);
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(b[i]) << (8 * i);
  return v;
}

std::uint64_t Prg::uniform(std::uint64_t bound) {
  if (bound == 0) throw InvalidArgument("Prg::uniform: bound must be positive");
  if ((bound & (bound - 1)) == 0) return u64() & (bound - 1);
  // Rejection sampling over the largest multiple of bound below 2^64.
  const std::uint64_t limit = std::uint64_t(0) - (std::uint64_t(0) - bound) % bound;
  for (;;) {
    const std::uint64_t v = u64();
    if (limit == 0 || v < limit) return v % bound;
  }
}

bool Prg::coin() {
  std::uint8_t b;
  fill(&b, 1);
  return (b & 1) != 0;
}

Prg::Seed Prg::fork_seed(const std::string& label) const {
  Sha256 h;
  h.update(BytesView(seed_.data(), seed_.size()));
  static constexpr std::uint8_t kSep = 0xff;
  h.update(BytesView(&kSep, 1));
  h.update(BytesView(reinterpret_cast<const std::uint8_t*>(label.data()), label.size()));
  const auto digest = h.finish();
  Seed s;
  std::copy(digest.begin(), digest.end(), s.begin());
  return s;
}

Prg Prg::fork(const std::string& label) const { return Prg(fork_seed(label)); }

}  // namespace spfe::crypto
