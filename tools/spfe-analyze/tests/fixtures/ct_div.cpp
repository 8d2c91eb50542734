// Fixture: division and modulo on a secret inside a region. The region
// pass must reject both (hardware divide latency is operand-dependent).
#include <cstdint>

std::uint64_t leak_div(std::uint64_t /*secret*/ x, std::uint64_t d) {
  // SPFE_CT_BEGIN(fixture_bad_div)
  const std::uint64_t q = x / d;  // flagged
  const std::uint64_t m = x % d;  // flagged
  // SPFE_CT_END
  return q + m;
}
