// Fixture: secret-dependent ternary inside a region. The region pass
// must reject it.
#include <cstdint>

std::uint64_t leak_ternary(std::uint64_t /*secret*/ x, std::uint64_t a, std::uint64_t b) {
  // SPFE_CT_BEGIN(fixture_bad_ternary)
  const std::uint64_t r = x != 0 ? a : b;  // cmov-by-branch on the secret: flagged
  // SPFE_CT_END
  return r;
}
