// Internal to src/spfe: plumbing shared by the single-server Paillier
// protocols (§3.3 input selection and the §4 statistics): the blinding
// headroom check, fixed-width ciphertext framing, and the §3.3.2
// polynomial mask.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/error.h"
#include "common/serialize.h"
#include "field/fp64.h"
#include "field/polynomial.h"
#include "he/paillier.h"

namespace spfe::protocols::detail {

// Statistical blinding slack: a blind is drawn 2^kStatBits times wider than
// the value it hides.
inline constexpr std::size_t kStatBits = 40;

// Ensures plaintexts below `bound`, statistically blinded, fit below N.
inline void check_blinding_headroom(const he::PaillierPublicKey& pk, const bignum::BigInt& bound) {
  if ((bound << (kStatBits + 2)) >= pk.n()) {
    throw CryptoError("Paillier modulus too small for blinding headroom");
  }
}

// Fixed-width ciphertext framing (the receiver knows the key size).
inline void write_ct(Writer& w, const he::PaillierPublicKey& pk, const bignum::BigInt& ct) {
  w.raw(ct.to_bytes_be_padded(pk.ciphertext_bytes()));
}

inline bignum::BigInt read_ct(Reader& r, const he::PaillierPublicKey& pk) {
  return bignum::BigInt::from_bytes_be(r.raw(pk.ciphertext_bytes()));
}

// The §3.3.2 masked database x'_i = x_i + P_s(i+1) for the coefficients s
// of P_s (the +1 keeps evaluation points nonzero).
inline std::vector<std::uint64_t> mask_database(std::span<const std::uint64_t> database,
                                                const std::vector<std::uint64_t>& s,
                                                const field::Fp64& field) {
  const field::Polynomial mask(field, s);
  std::vector<std::uint64_t> masked(database.size());
  for (std::size_t i = 0; i < database.size(); ++i) {
    masked[i] = field.add(database[i], mask.eval(field.from_u64(i + 1)));
  }
  return masked;
}

}  // namespace spfe::protocols::detail
