// Modular arithmetic over BigInt: gcd, inverses, Jacobi symbol, CRT, and
// Montgomery-accelerated modular exponentiation.
//
// `MontgomeryContext` caches per-modulus constants so repeated modexps with
// the same modulus (the hot path in Paillier and OT) avoid per-call setup.
// `CtFixedBaseTable` is its fixed-base twin for a base raised to many
// secret exponents (the OT group generator), and `FixedBaseCache` shares
// those tables process-wide.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <tuple>
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

// (a * b) mod m with the result in [0, m).
BigInt mod_mul(const BigInt& a, const BigInt& b, const BigInt& m);

// base^exp mod m for exp >= 0 and an odd m > 0 (MontgomeryContext::pow);
// throws InvalidArgument on an even modulus, as MontgomeryContext does.
BigInt mod_pow(const BigInt& base, const BigInt& exp, const BigInt& m);

// Jacobi symbol (a/n) for odd positive n; returns -1, 0, or 1.
int jacobi(const BigInt& a, const BigInt& n);

// Solves x = r1 (mod m1), x = r2 (mod m2) for coprime m1, m2, r1 in
// [0, m1) and r2 >= 0, with m1^{-1} mod m2 precomputed (CRT Paillier
// decryption and encryption combine under fixed key moduli); returns x in
// [0, m1*m2). No operand it multiplies or divides is zero, so a zero
// residue takes the same steps as any other.
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

// Constant-time fixed-base comb: for every 4-bit window j it stores
// base^(d * 16^j), d in [0, 16), in Montgomery form, built like the window
// table of MontgomeryContext::pow. pow() processes ceil(bit_length/4)
// windows, each with pow's masked full-table lookup and an unconditional
// mont_mul — no squarings, no zero-digit skips — so it is safe for secret
// exponents and returns exactly MontgomeryContext::pow's canonical result.
// The table owns its MontgomeryContext copy.
class CtFixedBaseTable {
 public:
  CtFixedBaseTable(const BigInt& modulus, const BigInt& base, std::size_t max_exp_bits);

  // base^exp mod modulus; exp in [0, 2^max_exp_bits). Byte-identical to
  // MontgomeryContext(modulus).pow(base, exp). Constant time in the
  // exponent value (its bit length is public by policy, as in pow).
  BigInt pow(const BigInt& exp) const;

  std::size_t max_exp_bits() const { return windows_.size() * 4; }

 private:
  MontgomeryContext ctx_;
  std::vector<std::array<std::vector<std::uint64_t>, 16>> windows_;
};

// Process-wide cache of CtFixedBaseTable keyed by (modulus, base, max exp
// bits), so a fixed public base raised to secret exponents (the OT group
// generator) pays its table build once per process. The first get() for a
// key builds the table (kFbTableBuild, with a "precomp.fbtable_build" span);
// later gets share it (kFbTableHit).
class FixedBaseCache {
 public:
  static FixedBaseCache& global();

  std::shared_ptr<const CtFixedBaseTable> get(const BigInt& modulus, const BigInt& base,
                                              std::size_t max_exp_bits);

  void clear();  // tests only

 private:
  std::mutex mu_;
  std::map<std::tuple<BigInt, BigInt, std::size_t>, std::shared_ptr<const CtFixedBaseTable>>
      tables_;
};

}  // namespace spfe::bignum
