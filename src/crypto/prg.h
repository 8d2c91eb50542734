// Seeded pseudorandom generator used for all protocol randomness.
//
// Every protocol object takes a `Prg&` rather than touching global entropy,
// which makes runs reproducible in tests and lets two parties derive common
// randomness from a shared seed (needed by the multi-server SPIR masking and
// the PSM common random input).
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <string>

#include "common/bytes.h"
#include "crypto/chacha20.h"

namespace spfe::crypto {

class Prg {
 public:
  static constexpr std::size_t kSeedSize = 32;
  using Seed = std::array<std::uint8_t, kSeedSize>;

  explicit Prg(const Seed& seed);
  // Seed from a label (hashed); convenient for tests.
  explicit Prg(const std::string& label);

  // Fresh seed from the OS entropy source.
  static Seed random_seed();

  void fill(std::uint8_t* out, std::size_t len);
  Bytes bytes(std::size_t len);
  std::uint64_t u64();
  // Uniform value in [0, bound); bound must be > 0. Rejection-sampled.
  std::uint64_t uniform(std::uint64_t bound);
  bool coin();

  // Derives an independent child PRG; children with distinct labels are
  // computationally independent of each other and of the parent's stream.
  Prg fork(const std::string& label) const;
  Seed fork_seed(const std::string& label) const;

 private:
  Seed seed_;
  ChaCha20 stream_;
};

}  // namespace spfe::crypto
