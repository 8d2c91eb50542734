#include "bignum/primes.h"

#include <array>

#include "bignum/modarith.h"
#include "common/error.h"

namespace spfe::bignum {
namespace {

constexpr std::array<std::uint64_t, 54> kSmallPrimes = {
    2,   3,   5,   7,   11,  13,  17,  19,  23,  29,  31,  37,  41,  43,  47,  53,  59,  61,
    67,  71,  73,  79,  83,  89,  97,  101, 103, 107, 109, 113, 127, 131, 137, 139, 149, 151,
    157, 163, 167, 173, 179, 181, 191, 193, 197, 199, 211, 223, 227, 229, 233, 239, 241, 251};

bool passes_trial_division(const BigInt& n) {
  for (const std::uint64_t p : kSmallPrimes) {
    const BigInt bp(p);
    if (n == bp) return true;
    if ((n % bp).is_zero()) return false;
  }
  return true;
}

// One Miller-Rabin round with the given base; n odd, > 3.
bool miller_rabin_round(const BigInt& n, const BigInt& base, const MontgomeryContext& mont,
                        const BigInt& n_minus_1, const BigInt& d, std::size_t r) {
  BigInt x = mont.pow(base, d);
  if (x.is_one() || x == n_minus_1) return true;
  for (std::size_t i = 1; i < r; ++i) {
    x = mod_mul(x, x, n);
    if (x == n_minus_1) return true;
    if (x.is_one()) return false;  // nontrivial sqrt of 1
  }
  return false;
}

}  // namespace

bool is_probable_prime(const BigInt& n, crypto::Prg& prg, int rounds) {
  if (n < BigInt(2)) return false;
  if (!n.is_odd()) return n == BigInt(2);
  if (!passes_trial_division(n)) return false;
  if (n <= BigInt(kSmallPrimes.back())) return true;

  // Write n - 1 = d * 2^r with d odd.
  const BigInt n_minus_1 = n - BigInt(1);
  BigInt d = n_minus_1;
  std::size_t r = 0;
  while (!d.is_odd()) {
    d = d >> 1;
    ++r;
  }

  const MontgomeryContext mont(n);
  const BigInt two(2);
  const BigInt base_bound = n - BigInt(3);  // bases in [2, n-2]
  for (int i = 0; i < rounds; ++i) {
    const BigInt base = BigInt::random_below(prg, base_bound) + two;
    if (!miller_rabin_round(n, base, mont, n_minus_1, d, r)) return false;
  }
  return true;
}

BigInt random_prime(crypto::Prg& prg, std::size_t bits, int rounds) {
  if (bits < 2) throw InvalidArgument("random_prime: need at least 2 bits");
  for (;;) {
    BigInt candidate = BigInt::random_bits(prg, bits);
    if (!candidate.is_odd()) candidate += BigInt(1);
    // Ensure the increment did not overflow the bit width.
    if (candidate.bit_length() != bits) continue;
    if (is_probable_prime(candidate, prg, rounds)) return candidate;
  }
}

BigInt random_safe_prime(crypto::Prg& prg, std::size_t bits, int rounds) {
  if (bits < 4) throw InvalidArgument("random_safe_prime: need at least 4 bits");
  for (;;) {
    const BigInt q = random_prime(prg, bits - 1, rounds);
    const BigInt p = q * BigInt(2) + BigInt(1);
    if (p.bit_length() == bits && is_probable_prime(p, prg, rounds)) return p;
  }
}

}  // namespace spfe::bignum
