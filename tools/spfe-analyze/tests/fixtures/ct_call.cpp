// Fixture: passing a secret to a non-whitelisted function inside a region.
// The region pass must reject it — the callee has not been audited for
// constant-time behavior.
#include <cstdint>

std::uint64_t helper(std::uint64_t v);

std::uint64_t leak_call(std::uint64_t /*secret*/ x) {
  // SPFE_CT_BEGIN(fixture_bad_call)
  const std::uint64_t r = helper(x);  // flagged: 'helper' is not CT-audited
  // SPFE_CT_END
  return r;
}
