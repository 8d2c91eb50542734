// Modular arithmetic over BigInt: gcd, inverses, Jacobi symbol, and
// Montgomery-accelerated modular exponentiation.
//
// `MontgomeryContext` caches per-modulus constants so repeated modexps with
// the same modulus (the hot path in Paillier and OT) avoid per-call setup.
#pragma once

#include <cstdint>
#include <vector>

#include "bignum/bigint.h"

namespace spfe::bignum {

BigInt gcd(const BigInt& a, const BigInt& b);

// Returns (g, x, y) with a*x + b*y = g = gcd(a, b).
struct ExtGcdResult {
  BigInt g;
  BigInt x;
  BigInt y;
};
ExtGcdResult ext_gcd(const BigInt& a, const BigInt& b);

// Inverse of a modulo m (m > 1); throws CryptoError if gcd(a, m) != 1.
BigInt mod_inverse(const BigInt& a, const BigInt& m);

// (a - b) mod m, (a * b) mod m with results in [0, m).
BigInt mod_sub(const BigInt& a, const BigInt& b, const BigInt& m);
BigInt mod_mul(const BigInt& a, const BigInt& b, const BigInt& m);

// base^exp mod m for exp >= 0, m > 0. Uses Montgomery for odd m, plain
// square-and-multiply otherwise.
BigInt mod_pow(const BigInt& base, const BigInt& exp, const BigInt& m);

// Jacobi symbol (a/n) for odd positive n; returns -1, 0, or 1.
int jacobi(const BigInt& a, const BigInt& n);

// Solves x = r1 (mod m1), x = r2 (mod m2) for coprime m1, m2;
// returns x in [0, m1*m2).
BigInt crt_combine(const BigInt& r1, const BigInt& m1, const BigInt& r2, const BigInt& m2);
// Same, with m1^{-1} mod m2 precomputed — for hot paths (CRT Paillier
// decryption) that combine under fixed moduli and shouldn't pay an
// extended-gcd per call.
BigInt crt_combine(const BigInt& r1, const BigInt& m1, const BigInt& r2, const BigInt& m2,
                   const BigInt& m1_inv_mod_m2);

// Montgomery multiplication context for a fixed odd modulus.
class MontgomeryContext {
 public:
  explicit MontgomeryContext(const BigInt& modulus);

  const BigInt& modulus() const { return modulus_; }

  // base^exp mod modulus via 4-bit fixed-window exponentiation.
  BigInt pow(const BigInt& base, const BigInt& exp) const;

  // Montgomery-domain primitives (exposed for the multi-exponentiation
  // engine in multiexp.h and for benchmarking the ablation against
  // divmod-based reduction).
  std::vector<std::uint64_t> to_mont(const BigInt& a) const;
  BigInt from_mont(const std::vector<std::uint64_t>& a) const;
  std::vector<std::uint64_t> mont_mul(const std::vector<std::uint64_t>& a,
                                      const std::vector<std::uint64_t>& b) const;
  // REDC(a * a): squares with symmetric cross terms (~2x fewer limb
  // multiplies than mont_mul(a, a)), then runs a separate reduction pass.
  std::vector<std::uint64_t> mont_sqr(const std::vector<std::uint64_t>& a) const;
  // Montgomery form of 1 — the multiplicative identity for mont_mul.
  const std::vector<std::uint64_t>& mont_one() const { return one_; }
  std::size_t limbs() const { return n_.size(); }

 private:
  // Montgomery reduction of a double-width (2k-limb) product into [0, n).
  std::vector<std::uint64_t> mont_reduce(std::vector<std::uint64_t> t) const;

  BigInt modulus_;
  std::vector<std::uint64_t> n_;       // modulus limbs
  std::uint64_t n0_inv_;               // -n^{-1} mod 2^64
  std::vector<std::uint64_t> r2_;      // R^2 mod n (Montgomery form of R)
  std::vector<std::uint64_t> one_;     // Montgomery form of 1 (R mod n)
};

}  // namespace spfe::bignum
