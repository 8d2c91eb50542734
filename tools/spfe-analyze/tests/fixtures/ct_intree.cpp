// Fixture: a helper defined in the same file, with a clean body, called on
// a secret inside a region. The whole-tree pass follows the taint into
// the helper and accepts the call; a region accepts only ct_*, structural
// and audited callees, since an unreviewed body can start branching
// without any edit to the region. The region pass must reject it.
#include <cstdint>

std::uint64_t mix(std::uint64_t v) { return (v << 1) ^ 0x5a; }

std::uint64_t blind(std::uint64_t /*secret*/ x) {
  // SPFE_CT_BEGIN(fixture_intree)
  const std::uint64_t r = mix(x);  // flagged: 'mix' is not CT-audited
  // SPFE_CT_END
  return r;
}
