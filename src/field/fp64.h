// Prime field with a modulus below 2^63 (so sums of two elements never
// overflow a u64). Multiplication reduces via unsigned __int128.
#pragma once

#include <cstdint>
#include <vector>

#include "crypto/prg.h"

namespace spfe::field {

class Fp64 {
 public:
  using value_type = std::uint64_t;

  // `modulus` must be prime (inv() relies on Fermat) and < 2^63.
  explicit Fp64(std::uint64_t modulus);

  std::uint64_t modulus() const { return p_; }

  value_type zero() const { return 0; }
  value_type one() const { return 1 % p_; }
  value_type from_u64(std::uint64_t v) const { return v % p_; }

  value_type add(value_type a, value_type b) const {
    const std::uint64_t s = a + b;
    return s >= p_ ? s - p_ : s;
  }
  value_type sub(value_type a, value_type b) const { return a >= b ? a - b : a + p_ - b; }
  value_type neg(value_type a) const { return a == 0 ? 0 : p_ - a; }
  value_type mul(value_type a, value_type b) const {
    return static_cast<std::uint64_t>(static_cast<unsigned __int128>(a) * b % p_);
  }
  // v mod p for v < p * 2^64, such as any 64-bit value times an element.
  // The quotient by p then fits 64 bits, so on x86-64 one 128-by-64-bit
  // `div` gives the remainder (the instruction traps rather than return a
  // wrong value if it does not fit); the compiler's u128 % u64 calls a
  // libgcc routine that cannot assume this. Elsewhere it is that %.
  value_type reduce_wide(unsigned __int128 v) const {
#if defined(__x86_64__)
    std::uint64_t quotient = 0, remainder = 0;
    asm("divq %4"
        : "=a"(quotient), "=d"(remainder)
        : "a"(static_cast<std::uint64_t>(v)), "d"(static_cast<std::uint64_t>(v >> 64)),
          "rm"(p_)
        : "cc");
    return remainder;
#else
    return static_cast<std::uint64_t>(v % p_);
#endif
  }
  value_type pow(value_type base, std::uint64_t exp) const;
  // Throws CryptoError on zero.
  value_type inv(value_type a) const;

  value_type random(crypto::Prg& prg) const { return prg.uniform(p_); }

  bool eq(value_type a, value_type b) const { return a == b; }

  // Commonly used prime moduli:
  // 2^61 - 1 (Mersenne): plenty of headroom for statistics over 32-bit data.
  static constexpr std::uint64_t kMersenne61 = (std::uint64_t(1) << 61) - 1;

 private:
  std::uint64_t p_;
};

// Smallest prime > n that fits the Fp64 constraints; deterministic
// (no PRG needed — uses trial division by deterministic Miller-Rabin bases).
std::uint64_t smallest_prime_above(std::uint64_t n);

}  // namespace spfe::field
