// Internal to src/spfe: plumbing shared by the single-server Paillier
// protocols (§3.3 input selection and the §4 statistics): modular helpers,
// fixed-width ciphertext framing, the pool lookup, and the §3.3.2
// polynomial mask.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/error.h"
#include "common/serialize.h"
#include "he/paillier.h"
#include "he/precomp.h"

namespace spfe::protocols::detail {

// Statistical blinding slack: a blind is drawn 2^kStatBits times wider than
// the value it hides.
inline constexpr std::size_t kStatBits = 40;

inline std::uint64_t add_mod(std::uint64_t a, std::uint64_t b, std::uint64_t u) {
  return static_cast<std::uint64_t>((static_cast<unsigned __int128>(a) + b) % u);
}

inline std::uint64_t mul_mod(std::uint64_t a, std::uint64_t b, std::uint64_t u) {
  return static_cast<std::uint64_t>(static_cast<unsigned __int128>(a) * b % u);
}

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

// The pool usable for encrypting under `pk`, or null (meaning: draw from
// the online PRG). A pool keyed differently — e.g. a client-key pool at a
// site that encrypts under the server's deserialized key — never serves.
inline he::PaillierRandomnessPool* pool_for(const he::ClientPrecomp& precomp,
                                            const he::PaillierPublicKey& pk) {
  return (precomp.paillier != nullptr && precomp.paillier->public_key() == pk)
             ? precomp.paillier
             : nullptr;
}

// The §3.3.2 masked database x'_i = x_i + P_s(i+1) mod p for the
// coefficients s of P_s (Horner at i+1; the +1 keeps evaluation points
// nonzero).
inline std::vector<std::uint64_t> mask_database(std::span<const std::uint64_t> database,
                                                const std::vector<std::uint64_t>& s,
                                                std::uint64_t p) {
  std::vector<std::uint64_t> masked(database.size());
  for (std::size_t i = 0; i < database.size(); ++i) {
    std::uint64_t acc = 0;
    for (std::size_t k = s.size(); k-- > 0;) acc = add_mod(mul_mod(acc, (i + 1) % p, p), s[k], p);
    masked[i] = add_mod(database[i], acc, p);
  }
  return masked;
}

}  // namespace spfe::protocols::detail
