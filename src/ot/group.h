// Prime-order Schnorr group for the Naor–Pinkas base OT.
//
// p = 2q + 1 is a safe prime; the group is the order-q subgroup of Z_p^*
// (the quadratic residues). Fixed published-style parameters are embedded
// for a 512-bit modulus (generated once with this library's own safe-prime
// search and verified by the test suite); custom parameters can be
// generated for tests.
#pragma once

#include <cstddef>
#include <memory>

#include "bignum/bigint.h"
#include "bignum/modarith.h"
#include "common/bytes.h"
#include "crypto/prg.h"

namespace spfe::ot {

class SchnorrGroup {
 public:
  // p must be a safe prime, g a generator of the order-(p-1)/2 subgroup.
  SchnorrGroup(bignum::BigInt p, bignum::BigInt g);

  const bignum::BigInt& p() const { return p_; }
  const bignum::BigInt& q() const { return q_; }  // subgroup order (p-1)/2
  const bignum::BigInt& g() const { return g_; }
  std::size_t element_bytes() const { return (p_.bit_length() + 7) / 8; }

  bignum::BigInt exp(const bignum::BigInt& base, const bignum::BigInt& e) const;
  // g^e via the process-wide fixed-base comb table (bignum/modarith.h), built
  // once per (p, g) and shared by every group instance — Naor–Pinkas setup
  // does many g-exponentiations with secret exponents against one fixed
  // generator. Falls back to the generic constant-time pow for exponents
  // wider than q (hash_to_group preimages never are). Byte-identical to
  // exp(g, e) either way.
  bignum::BigInt exp_g(const bignum::BigInt& e) const;
  bignum::BigInt mul(const bignum::BigInt& a, const bignum::BigInt& b) const;
  bignum::BigInt inv(const bignum::BigInt& a) const;
  bool is_element(const bignum::BigInt& a) const;  // in the QR subgroup

  bignum::BigInt random_exponent(crypto::Prg& prg) const;  // uniform in [0, q)
  // Deterministically maps a label to a subgroup element with unknown
  // discrete log (hash then square) — the common reference string used to
  // make the base OT one-round.
  bignum::BigInt hash_to_group(const std::string& label) const;

  // Embedded verified parameters.
  static SchnorrGroup rfc_like_512();

 private:
  bignum::BigInt p_;
  bignum::BigInt q_;
  bignum::BigInt g_;
  bignum::MontgomeryContext mont_;
  std::shared_ptr<const bignum::CtFixedBaseTable> g_table_;  // cached comb for g
};

}  // namespace spfe::ot
