// Fixture mirroring the PR 7 fixed-base table evaluation
// (src/he/precomp.cpp CtFixedBaseTable::pow): the real kernel does a masked
// full-table scan per 4-bit window; this seeded variant takes the classic
// shortcut of indexing the table directly with the secret window digit.
// The region pass must reject it — same region shape as the shipping code,
// so a check that passes the real tree but misses this leak is broken.
#include <cstdint>
#include <vector>

using u64 = std::uint64_t;

std::vector<u64> fbtable_pow_leaky(const std::vector<u64>& /*secret*/ exp_limbs,
                                   const std::vector<std::vector<u64>>& table,
                                   std::size_t windows) {
  std::vector<u64> acc = {1};
  // SPFE_CT_BEGIN(fbtable_pow_leaky)
  for (std::size_t j = 0; j < windows; ++j) {
    const u64 digit = (exp_limbs[(4 * j) / 64] >> ((4 * j) % 64)) & 0xf;
    acc = table[16 * j + digit];  // secret-dependent table index: must be flagged
  }
  // SPFE_CT_END
  return acc;
}
