// Goldwasser–Micali bit encryption ([29] in the paper): XOR-homomorphic,
// plaintext group Z_2. Included as the paper's canonical homomorphic scheme
// for the Boolean data domain; the benches ablate it against Paillier for
// bit-valued protocols.
//
// E(b) = z^b * r^2 mod N where z is a pseudosquare (Jacobi symbol +1,
// non-residue mod both primes). Decryption tests quadratic residuosity
// modulo p. E(a) * E(b) = E(a XOR b).
#pragma once

#include "bignum/bigint.h"
#include "bignum/modarith.h"
#include "common/serialize.h"
#include "crypto/prg.h"

namespace spfe::he {

class GmPublicKey {
 public:
  GmPublicKey(bignum::BigInt n, bignum::BigInt z);

  const bignum::BigInt& n() const { return n_; }
  const bignum::BigInt& z() const { return z_; }
  std::size_t ciphertext_bytes() const { return (n_.bit_length() + 7) / 8; }

  bignum::BigInt encrypt(bool bit, crypto::Prg& prg) const;
  // Uniform randomness in [1, N) for encryption/rerandomization.
  bignum::BigInt random_unit(crypto::Prg& prg) const;
  // E(a) * E(b) = E(a ^ b).
  bignum::BigInt xor_ct(const bignum::BigInt& ca, const bignum::BigInt& cb) const;
  bignum::BigInt rerandomize(const bignum::BigInt& c, crypto::Prg& prg) const;

  void serialize(Writer& w) const;
  static GmPublicKey deserialize(Reader& r);

  bool operator==(const GmPublicKey& o) const { return n_ == o.n_ && z_ == o.z_; }

 private:
  bignum::BigInt n_;
  bignum::BigInt z_;
  bignum::MontgomeryContext mont_;
};

class GmPrivateKey {
 public:
  GmPrivateKey(bignum::BigInt p, bignum::BigInt q, bignum::BigInt z);

  const GmPublicKey& public_key() const { return pk_; }

  // Quadratic-residuosity test via the Euler criterion c^((p-1)/2) mod p,
  // evaluated with the constant-time Montgomery exponentiation — unlike a
  // Jacobi-symbol Euclid chain, the running time does not trace the secret
  // factor p through a data-dependent remainder cascade.
  bool decrypt(const bignum::BigInt& c) const;

 private:
  GmPublicKey pk_;
  bignum::BigInt p_;
  bignum::MontgomeryContext mont_p_;
  bignum::BigInt euler_exp_;  // (p - 1) / 2
};

GmPrivateKey gm_keygen(crypto::Prg& prg, std::size_t modulus_bits);

}  // namespace spfe::he
