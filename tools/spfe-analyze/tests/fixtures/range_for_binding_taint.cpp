// Fixture: taint flows into structured-binding range-for variables.
// Iterating a /*secret*/ map binds each value to `v`, so the branch on it
// is secret-dependent. Expected exit: 1.
#include <cstdint>
#include <map>

namespace fixture {

std::uint64_t count_threes(const std::map<std::uint64_t, std::uint64_t>& /*secret*/ counts) {
  std::uint64_t hits = 0;
  for (const auto& [key, v] : counts) {
    if (v == 3) ++hits;
  }
  return hits;
}

}  // namespace fixture
