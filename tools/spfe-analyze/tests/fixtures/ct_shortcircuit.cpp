// Fixture: short-circuit operator on a secret inside a region. The region
// pass must reject it (`&&` compiles to a conditional skip of the second
// operand).
#include <cstdint>

bool leak_shortcircuit(std::uint64_t /*secret*/ x, bool flag) {
  // SPFE_CT_BEGIN(fixture_bad_shortcircuit)
  const bool r = (x != 0) && flag;  // flagged
  // SPFE_CT_END
  return r;
}
