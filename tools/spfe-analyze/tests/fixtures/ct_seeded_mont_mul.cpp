// Fixture required by the acceptance criteria: a mont_mul-shaped kernel
// with a deliberately seeded secret-dependent branch (the classic
// "skip zero limbs" shortcut). The region pass must reject this file —
// it is the same region shape as src/bignum/modarith.cpp mont_mul, so a
// check that passes the real tree but misses this leak is broken.
#include <cstdint>
#include <vector>

using u64 = std::uint64_t;
using u128 = unsigned __int128;

std::vector<u64> mont_mul_leaky(const std::vector<u64>& /*secret*/ a,
                                const std::vector<u64>& /*secret*/ b,
                                const std::vector<u64>& n, u64 n0_inv) {
  const std::size_t k = n.size();
  std::vector<u64> t(k + 2, 0);
  // SPFE_CT_BEGIN(mont_mul_leaky)
  for (std::size_t i = 0; i < k; ++i) {
    if (a[i] == 0) continue;  // secret-dependent skip: must be flagged
    u64 carry = 0;
    for (std::size_t j = 0; j < k; ++j) {
      const u128 s = static_cast<u128>(a[i]) * b[j] + t[j] + carry;
      t[j] = static_cast<u64>(s);
      carry = static_cast<u64>(s >> 64);
    }
    u128 s = static_cast<u128>(t[k]) + carry;
    t[k] = static_cast<u64>(s);
    t[k + 1] = static_cast<u64>(s >> 64);
    const u64 m = t[0] * n0_inv;
    carry = 0;
    for (std::size_t j = 0; j < k; ++j) {
      const u128 sj = static_cast<u128>(m) * n[j] + t[j] + carry;
      t[j] = static_cast<u64>(sj);
      carry = static_cast<u64>(sj >> 64);
    }
  }
  // SPFE_CT_END
  t.resize(k);
  return t;
}
