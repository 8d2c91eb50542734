// Paillier additively homomorphic encryption (cited as [41] in the paper).
//
// Plaintext group is Z_N; ciphertexts live in Z_{N^2}^*. The homomorphism is
// exactly what §3.3.2/§3.3.3/§3.3.4/§4 require:
//   E(a) (*) E(b)   = E(a + b mod N)      (ciphertext multiplication)
//   E(a) ^ c        = E(c * a mod N)      (scalar exponentiation)
// Protocols that work over a small ring Z_u embed Z_u in Z_N (u << N) and
// track value ranges so blinding stays statistically hiding — see
// mpc/arith_protocol.h for the bookkeeping.
//
// Encryption uses g = N + 1, so E(m, r) = (1 + m*N) * r^N mod N^2 costs a
// single modexp. Decryption uses the standard CRT split: with knowledge of
// p and q, m mod p = L_p(c^{p-1} mod p^2) * h_p mod p (h_p precomputed, and
// symmetrically mod q), recombined with bignum::crt_combine — two half-size
// modexps with half-size exponents, ~4x cheaper than the direct
// L(c^lambda mod N^2) * mu mod N path, which is kept as
// `decrypt_reference` for equivalence tests and the ablation benchmark.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "bignum/bigint.h"
#include "bignum/modarith.h"
#include "common/serialize.h"
#include "crypto/prg.h"

namespace spfe::he {

class PaillierPublicKey {
 public:
  explicit PaillierPublicKey(bignum::BigInt n);

  const bignum::BigInt& n() const { return n_; }
  const bignum::BigInt& n_squared() const { return n2_; }
  std::size_t modulus_bits() const { return n_.bit_length(); }
  // Serialized ciphertext size in bytes (fixed width).
  std::size_t ciphertext_bytes() const { return (n2_.bit_length() + 7) / 8; }

  // Encrypts m (reduced mod N) with fresh randomness from `prg`.
  bignum::BigInt encrypt(const bignum::BigInt& m, crypto::Prg& prg) const;
  // Deterministic encryption with explicit randomness r in Z_N^*.
  bignum::BigInt encrypt_with_randomness(const bignum::BigInt& m,
                                         const bignum::BigInt& r) const;

  // The message-independent encryption factor r^N mod N^2 — the entire
  // modexp cost of an encryption. Precomputable offline (he/precomp.h).
  bignum::BigInt encryption_factor(const bignum::BigInt& r) const;
  // Encrypts m with a precomputed factor rn = encryption_factor(r): one
  // modular multiplication. encrypt_with_factor(m, encryption_factor(r)) ==
  // encrypt_with_randomness(m, r).
  bignum::BigInt encrypt_with_factor(const bignum::BigInt& m,
                                     const bignum::BigInt& rn) const;
  // Rerandomization with a precomputed factor: c * rn mod N^2.
  bignum::BigInt rerandomize_with_factor(const bignum::BigInt& c,
                                         const bignum::BigInt& rn) const;

  // Uniform randomness in [1, N) for encryption/rerandomization; gcd(r, N)
  // is 1 except with negligible probability (a violation would factor N).
  bignum::BigInt random_unit(crypto::Prg& prg) const;

  // E(a) * E(b) = E(a + b).
  bignum::BigInt add(const bignum::BigInt& ca, const bignum::BigInt& cb) const;
  // E(a)^c = E(c * a). Negative scalars use the group inverse.
  bignum::BigInt mul_scalar(const bignum::BigInt& c, const bignum::BigInt& scalar) const;
  // Homomorphic weighted sum E(sum_i scalars[i] * a_i) = prod_i cts[i]^{scalars[i]}
  // evaluated as one simultaneous multi-exponentiation (shared squaring
  // chain) instead of |cts| independent modexps. Byte-identical to folding
  // mul_scalar results with add.
  bignum::BigInt mul_scalar_sum(std::span<const bignum::BigInt> cts,
                                std::span<const bignum::BigInt> scalars) const;
  // Column-wise batch of the above: out[c] = E(sum_i scalars[i][c] * a_i).
  // Window/comb tables are shared across columns and the columns fan out
  // across the global thread pool — the cPIR server fold kernel.
  std::vector<bignum::BigInt> mul_scalar_sum_matrix(
      std::span<const bignum::BigInt> cts,
      const std::vector<std::vector<bignum::BigInt>>& scalars) const;
  // E(a) -> E(-a).
  bignum::BigInt negate(const bignum::BigInt& c) const;
  // Refreshes randomness without changing the plaintext.
  bignum::BigInt rerandomize(const bignum::BigInt& c, crypto::Prg& prg) const;
  // Deterministic rerandomization with explicit r in Z_N^*; lets callers
  // pre-draw randomness serially and fan the modexps out across threads.
  bignum::BigInt rerandomize_with_randomness(const bignum::BigInt& c,
                                             const bignum::BigInt& r) const;

  void serialize(Writer& w) const;
  static PaillierPublicKey deserialize(Reader& r);

  bool operator==(const PaillierPublicKey& o) const { return n_ == o.n_; }

 private:
  bignum::BigInt n_;
  bignum::BigInt n2_;
  bignum::MontgomeryContext mont_n2_;
};

class PaillierPrivateKey {
 public:
  // Requires odd p != q > 2 with gcd(pq, (p-1)(q-1)) = 1 (the keygen
  // invariant the decryption equation relies on); throws InvalidArgument
  // otherwise, so adversarially constructed keys fail fast.
  PaillierPrivateKey(bignum::BigInt p, bignum::BigInt q);

  const PaillierPublicKey& public_key() const { return pk_; }

  // CRT decryption (see the file comment); the default fast path.
  bignum::BigInt decrypt(const bignum::BigInt& c) const;
  // Reference CRT-free decryption L(c^lambda mod N^2) * mu mod N. Same
  // output as `decrypt` for every c in Z_{N^2}^*; ~4x slower.
  bignum::BigInt decrypt_reference(const bignum::BigInt& c) const;
  // Batch decryption fanned out across the global thread pool; element i of
  // the result is decrypt(cts[i]).
  std::vector<bignum::BigInt> decrypt_all(std::span<const bignum::BigInt> cts) const;
  // Decrypts into the symmetric range (-N/2, N/2]; used by protocols that
  // encode signed differences.
  bignum::BigInt decrypt_signed(const bignum::BigInt& c) const;

 private:
  void check_ciphertext(const bignum::BigInt& c) const;

  PaillierPublicKey pk_;
  bignum::BigInt lambda_;  // lcm(p-1, q-1)
  bignum::BigInt mu_;      // lambda^{-1} mod N
  bignum::BigInt p_;
  bignum::BigInt q_;
  bignum::BigInt p2_;  // p^2
  bignum::BigInt q2_;  // q^2
  bignum::MontgomeryContext mont_p2_;
  bignum::MontgomeryContext mont_q2_;
  bignum::BigInt ep_;  // p - 1 (CRT decryption exponent mod p^2)
  bignum::BigInt eq_;  // q - 1
  bignum::BigInt hp_;  // ((p-1) * q)^{-1} mod p
  bignum::BigInt hq_;  // ((q-1) * p)^{-1} mod q
  bignum::BigInt pinv_q_;  // p^{-1} mod q (CRT recombination)
};

// Generates a key with an N of `modulus_bits` bits (two primes of half size).
PaillierPrivateKey paillier_keygen(crypto::Prg& prg, std::size_t modulus_bits);

}  // namespace spfe::he
