// Fixture: region opened but never closed. The region pass must reject
// it — an unterminated region silently stops covering the code below it.
#include <cstdint>

std::uint64_t unclosed(std::uint64_t /*secret*/ x) {
  // SPFE_CT_BEGIN(fixture_unclosed)
  const std::uint64_t r = x ^ 1;
  return r;
}
