// Fixture: a secret-indexed load through a range-for loop variable inside
// a region. Each `d` is an element of the secret range, so `table[d]`
// reads a secret-dependent cache line just as `table[secret_digits[i]]`
// would. The region pass must reject it.
#include <cstdint>
#include <vector>

using u64 = std::uint64_t;

u64 sum_digits(const std::vector<u64>& table,
               const std::vector<u64>& /*secret*/ secret_digits) {
  u64 acc = 0;
  // SPFE_CT_BEGIN(fixture_range_for)
  for (auto d : secret_digits) {
    acc += table[d & 0xf];  // secret-dependent table index: flagged
  }
  // SPFE_CT_END
  return acc;
}
