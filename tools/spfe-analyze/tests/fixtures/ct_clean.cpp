// Fixture: a well-formed constant-time region. The analyzer must accept
// this file with zero findings.
#include <cstdint>
#include <vector>

using u64 = std::uint64_t;

inline u64 ct_eq_u64(u64 a, u64 b) {
  const u64 x = a ^ b;
  const u64 nonzero = (x | (static_cast<u64>(0) - x)) >> 63;
  return static_cast<u64>(0) - (nonzero ^ 1);
}

inline u64 ct_select_u64(u64 mask, u64 a, u64 b) { return b ^ (mask & (a ^ b)); }

// Masked lookup: every entry is visited, the match is accumulated under an
// equality mask, loop bounds are public.
u64 lookup(const std::vector<u64>& table, u64 /*secret*/ index) {
  u64 out = 0;
  // SPFE_CT_BEGIN(fixture_lookup)
  for (std::size_t e = 0; e < table.size(); ++e) {
    const u64 m = ct_eq_u64(e, index);
    out |= m & table[e];
  }
  const u64 fallback = ct_select_u64(ct_eq_u64(out, 0), 1, out);
  // SPFE_CT_END
  return fallback;
}
