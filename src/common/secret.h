// Secret-taint type discipline and branchless constant-time primitives.
//
// Three cooperating layers keep secret-dependent control flow out of the
// crypto hot paths (see DESIGN.md "Constant-time policy"):
//   1. this header — the branchless ct_* primitives the migrated kernels
//      are built from, plus `SecretBool`, a mask with no conversion to bool
//      (so `if (secret_bool)` is a compile error);
//   2. tools/spfe-analyze — a static analyzer whose region check enforces
//      annotated `// SPFE_CT_BEGIN(fn)` ... `// SPFE_CT_END` regions: no
//      branches, short-circuit operators, secret-indexed subscripts,
//      division, or calls to non-audited functions on tainted values;
//   3. tests/ct_harness_test.cpp — a dudect-style timing distinguisher that
//      smoke-checks the migrated kernels dynamically.
//
// All mask-producing primitives return a full-width std::uint64_t mask:
// ~0 (all ones) for "true", 0 for "false". Masks compose with & | ^ and
// drive ct_select without ever materializing a branchable bool. The
// ct_value_barrier keeps the optimizer from collapsing a mask back into a
// compare-and-branch.
#pragma once

#include <cstddef>
#include <cstdint>

namespace spfe::common {

// Optimization barrier: the compiler must treat `v` as an opaque value, so
// range analysis cannot turn mask arithmetic back into branches.
inline std::uint64_t ct_value_barrier(std::uint64_t v) {
#if defined(__GNUC__) || defined(__clang__)
  __asm__("" : "+r"(v));
#endif
  return v;
}

// Full-width mask from the low bit of b (b must be 0 or 1).
inline std::uint64_t ct_mask_from_bit(std::uint64_t b) {
  return static_cast<std::uint64_t>(0) - ct_value_barrier(b & 1);
}

// ~0 if x == 0, else 0.
inline std::uint64_t ct_is_zero_u64(std::uint64_t x) {
  x = ct_value_barrier(x);
  // (x | -x) has its top bit set iff x != 0.
  const std::uint64_t nonzero_bit = (x | (static_cast<std::uint64_t>(0) - x)) >> 63;
  return ct_mask_from_bit(nonzero_bit ^ 1);
}

// ~0 if x != 0, else 0.
inline std::uint64_t ct_is_nonzero_u64(std::uint64_t x) { return ~ct_is_zero_u64(x); }

// ~0 if a == b, else 0.
inline std::uint64_t ct_eq_u64(std::uint64_t a, std::uint64_t b) {
  return ct_is_zero_u64(a ^ b);
}

// ~0 if a < b (unsigned), else 0. Hacker's Delight borrow-of-subtraction:
// the top bit of ((~a & b) | (~(a ^ b) & (a - b))) is the borrow of a - b.
inline std::uint64_t ct_lt_u64(std::uint64_t a, std::uint64_t b) {
  const std::uint64_t borrow = ((~a & b) | (~(a ^ b) & (a - b))) >> 63;
  return ct_mask_from_bit(borrow);
}

// ~0 if a >= b (unsigned), else 0.
inline std::uint64_t ct_ge_u64(std::uint64_t a, std::uint64_t b) { return ~ct_lt_u64(a, b); }

// a if mask is all-ones, b if mask is zero. mask must be full-width.
inline std::uint64_t ct_select_u64(std::uint64_t mask, std::uint64_t a, std::uint64_t b) {
  return b ^ (mask & (a ^ b));
}

// ~0 if the two n-byte buffers are equal, else 0. Scans every byte; no
// early exit.
inline std::uint64_t ct_eq_bytes(const std::uint8_t* a, const std::uint8_t* b, std::size_t n) {
  std::uint64_t acc = 0;
  for (std::size_t i = 0; i < n; ++i) acc |= static_cast<std::uint64_t>(a[i] ^ b[i]);
  return ct_is_zero_u64(acc);
}

// Quotient and remainder of x / d without a hardware divide: 64 rounds of
// branchless binary long division. Constant time in x; `d` is public (the
// PIR dimension sizes, matrix geometry, ...) and must be nonzero.
struct CtDivmod {
  std::uint64_t quotient;
  std::uint64_t remainder;
};
inline CtDivmod ct_divmod_u64(std::uint64_t x, std::uint64_t d) {
  std::uint64_t q = 0;
  std::uint64_t r = 0;
  for (int i = 63; i >= 0; --i) {
    r = (r << 1) | ((x >> i) & 1);
    const std::uint64_t take = ct_ge_u64(r, d);
    r -= take & d;
    q |= (take & 1) << i;
  }
  return {q, r};
}

// Boolean whose truth value cannot be branched on: there is no conversion
// to bool, only mask composition and an explicit, audited declassify().
class SecretBool {
 public:
  SecretBool() : mask_(0) {}
  // From a full-width mask (0 or ~0) as produced by the ct_* primitives.
  static SecretBool from_mask(std::uint64_t mask) { return SecretBool(mask); }
  static SecretBool from_bit(std::uint64_t bit) { return SecretBool(ct_mask_from_bit(bit)); }

  std::uint64_t mask() const { return mask_; }

  SecretBool operator&(SecretBool o) const { return SecretBool(mask_ & o.mask_); }
  SecretBool operator|(SecretBool o) const { return SecretBool(mask_ | o.mask_); }
  SecretBool operator^(SecretBool o) const { return SecretBool(mask_ ^ o.mask_); }
  SecretBool operator~() const { return SecretBool(~mask_); }

  // Deliberate declassification. Every call site is an audited exit from
  // the taint discipline (e.g. rejection-sampling accept/reject decisions,
  // whose rejected draws are independent of the surviving secret).
  bool declassify() const { return mask_ != 0; }

 private:
  explicit SecretBool(std::uint64_t mask) : mask_(mask) {}
  std::uint64_t mask_;
};

}  // namespace spfe::common
