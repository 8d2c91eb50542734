// Fixture: taint flows into range-for loop variables. Iterating a
// /*secret*/ container binds each element to the loop variable, so the
// branch on `i` is secret-dependent exactly like the `idx[j]` form.
// Expected exit: 1.
#include <cstdint>
#include <vector>

namespace fixture {

std::uint64_t count_threes(const std::vector<std::uint64_t>& /*secret*/ idx) {
  std::uint64_t hits = 0;
  for (const std::uint64_t i : idx) {
    if (i == 3) ++hits;
  }
  return hits;
}

}  // namespace fixture
