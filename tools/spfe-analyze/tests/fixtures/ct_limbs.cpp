// Fixture: a branch on a limb of a secret big integer inside a region.
// `limbs()` is an audited accessor, not a structural one: the limbs of a
// secret are secret, while their count (`limbs.size()`) is public shape.
// The region pass must reject the branch.
#include <cstdint>
#include <vector>

struct Big {
  const std::vector<std::uint64_t>& limbs() const;
};

bool low_limb_zero(const Big& /*secret*/ e) {
  bool zero = false;
  // SPFE_CT_BEGIN(fixture_limbs)
  const auto& limbs = e.limbs();
  for (std::size_t i = 0; i < limbs.size(); ++i) {
    zero = !zero;  // loop bound: public limb count
  }
  if (limbs[0] == 0) {  // branch on a secret limb: flagged
    zero = true;
  }
  // SPFE_CT_END
  return zero;
}
