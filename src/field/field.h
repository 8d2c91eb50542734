// Field abstraction shared by the protocol layers.
//
// Generic code (polynomials, Reed–Solomon decoding, `net::run_robust_star`)
// is templated on the `FieldLike` concept. Its one implementation is Fp64,
// a prime field with a word-sized modulus, which every protocol layer uses:
// §3.1 needs |F| only to exceed the server count and the data range, and
// §3.3.2 and §4 embed their Fp64 values into Paillier plaintexts (BigInt)
// where they meet encryption.
#pragma once

#include <concepts>
#include <cstdint>

#include "crypto/prg.h"

namespace spfe::field {

template <typename F>
concept FieldLike = requires(const F f, const typename F::value_type a,
                             const typename F::value_type b, crypto::Prg& prg,
                             std::uint64_t u) {
  typename F::value_type;
  { f.zero() } -> std::convertible_to<typename F::value_type>;
  { f.one() } -> std::convertible_to<typename F::value_type>;
  { f.add(a, b) } -> std::convertible_to<typename F::value_type>;
  { f.sub(a, b) } -> std::convertible_to<typename F::value_type>;
  { f.mul(a, b) } -> std::convertible_to<typename F::value_type>;
  { f.neg(a) } -> std::convertible_to<typename F::value_type>;
  { f.inv(a) } -> std::convertible_to<typename F::value_type>;
  { f.from_u64(u) } -> std::convertible_to<typename F::value_type>;
  { f.random(prg) } -> std::convertible_to<typename F::value_type>;
  { f.eq(a, b) } -> std::convertible_to<bool>;
};

}  // namespace spfe::field
