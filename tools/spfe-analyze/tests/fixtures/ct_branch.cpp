// Fixture: secret-dependent `if` inside a region. The region pass must
// reject it.
#include <cstdint>

std::uint64_t leak_branch(std::uint64_t /*secret*/ x) {
  std::uint64_t r = 0;
  // SPFE_CT_BEGIN(fixture_bad_branch)
  if (x == 0) {  // branch on the secret: flagged
    r = 1;
  }
  // SPFE_CT_END
  return r;
}
