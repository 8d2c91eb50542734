// Fixture: secret-indexed table load inside a region. The region pass
// must reject it.
#include <cstdint>

extern const std::uint64_t kSbox[256];

std::uint64_t leak_subscript(std::uint64_t /*secret*/ x) {
  // SPFE_CT_BEGIN(fixture_bad_subscript)
  const std::uint64_t r = kSbox[x & 0xff];  // cache line depends on the secret: flagged
  // SPFE_CT_END
  return r;
}
