#include "field/fp64.h"

#include <array>

#include "common/error.h"

namespace spfe::field {
namespace {

using u128 = unsigned __int128;

std::uint64_t mulmod(std::uint64_t a, std::uint64_t b, std::uint64_t m) {
  return static_cast<std::uint64_t>(static_cast<u128>(a) * b % m);
}

std::uint64_t powmod(std::uint64_t base, std::uint64_t exp, std::uint64_t m) {
  std::uint64_t result = 1 % m;
  base %= m;
  while (exp != 0) {
    if (exp & 1) result = mulmod(result, base, m);
    base = mulmod(base, base, m);
    exp >>= 1;
  }
  return result;
}

// Deterministic Miller-Rabin for 64-bit inputs (bases cover all u64).
bool is_prime_u64(std::uint64_t n) {
  if (n < 2) return false;
  for (std::uint64_t p : {2ull, 3ull, 5ull, 7ull, 11ull, 13ull, 17ull, 19ull, 23ull, 29ull,
                          31ull, 37ull}) {
    if (n % p == 0) return n == p;
  }
  std::uint64_t d = n - 1;
  int r = 0;
  while ((d & 1) == 0) {
    d >>= 1;
    ++r;
  }
  for (std::uint64_t a : {2ull, 3ull, 5ull, 7ull, 11ull, 13ull, 17ull, 19ull, 23ull, 29ull,
                          31ull, 37ull}) {
    std::uint64_t x = powmod(a, d, n);
    if (x == 1 || x == n - 1) continue;
    bool witness = true;
    for (int i = 1; i < r; ++i) {
      x = mulmod(x, x, n);
      if (x == n - 1) {
        witness = false;
        break;
      }
    }
    if (witness) return false;
  }
  return true;
}

}  // namespace

Fp64::Fp64(std::uint64_t modulus) : p_(modulus) {
  if (modulus < 2 || modulus >= (std::uint64_t(1) << 63)) {
    throw InvalidArgument("Fp64: modulus must be in [2, 2^63)");
  }
  if (!is_prime_u64(modulus)) {
    throw InvalidArgument("Fp64: modulus must be prime");
  }
}

Fp64::value_type Fp64::pow(value_type base, std::uint64_t exp) const {
  return powmod(base, exp, p_);
}

Fp64::value_type Fp64::inv(value_type a) const {
  if (a == 0) throw CryptoError("Fp64::inv: zero has no inverse");
  return pow(a, p_ - 2);
}

std::uint64_t smallest_prime_above(std::uint64_t n) {
  if (n >= (std::uint64_t(1) << 62)) {
    throw InvalidArgument("smallest_prime_above: out of Fp64 range");
  }
  std::uint64_t candidate = n + 1;
  if (candidate <= 2) return 2;
  if ((candidate & 1) == 0) ++candidate;
  while (!is_prime_u64(candidate)) candidate += 2;
  return candidate;
}

}  // namespace spfe::field
