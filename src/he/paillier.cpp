#include "he/paillier.h"

#include "bignum/multiexp.h"
#include "bignum/primes.h"
#include "bignum/serialize.h"
#include "common/error.h"
#include "common/parallel.h"
#include "common/secret.h"
#include "obs/obs.h"

namespace spfe::he {

using bignum::BigInt;

PaillierPublicKey::PaillierPublicKey(BigInt n)
    : n_(std::move(n)), n2_(n_ * n_), mont_n2_(n2_) {
  if (n_ <= BigInt(3) || !n_.is_odd()) {
    throw InvalidArgument("PaillierPublicKey: N must be an odd composite > 3");
  }
}

BigInt PaillierPublicKey::random_unit(crypto::Prg& prg) const {
  // Draw directly from [0, N) and reject 0, so the support is exactly
  // [1, N) as documented (including N - 1) with no off-by-one at either end.
  // The zero test scans every limb through the mask primitives; only the
  // final accept/reject bit is declassified, which is safe by design:
  // rejected draws are discarded and independent of the surviving secret.
  for (;;) {
    BigInt r = BigInt::random_below(prg, n_);
    common::SecretBool nonzero;
    for (const std::uint64_t limb : r.limbs()) {
      nonzero = nonzero | common::SecretBool::from_mask(common::ct_is_nonzero_u64(limb));
    }
    // SPFE_DECLASSIFY: rejection-sampling accept bit; rejected draws are discarded and independent of the survivor
    if (nonzero.declassify()) return r;
  }
}

BigInt PaillierPublicKey::encrypt(const BigInt& m, crypto::Prg& prg) const {
  return encrypt_with_randomness(m, random_unit(prg));
}

BigInt PaillierPublicKey::encrypt_with_randomness(const BigInt& m, const BigInt& r) const {
  return encrypt_with_factor(m, encryption_factor(r));
}

BigInt PaillierPublicKey::encryption_factor(const BigInt& r) const {
  return mont_n2_.pow(r, n_);
}

BigInt PaillierPublicKey::encrypt_with_factor(const BigInt& m, const BigInt& rn) const {
  obs::count(obs::Op::kPaillierEncrypt);
  const BigInt m_red = m.mod_floor(n_);
  // (1 + N)^m = 1 + m*N (mod N^2)
  const BigInt gm = (BigInt(1) + m_red * n_).mod_floor(n2_);
  return bignum::mod_mul(gm, rn, n2_);
}

BigInt PaillierPublicKey::rerandomize_with_factor(const BigInt& c, const BigInt& rn) const {
  obs::count(obs::Op::kPaillierRerandomize);
  return bignum::mod_mul(c, rn, n2_);
}

BigInt PaillierPublicKey::add(const BigInt& ca, const BigInt& cb) const {
  return bignum::mod_mul(ca, cb, n2_);
}

BigInt PaillierPublicKey::mul_scalar(const BigInt& c, const BigInt& scalar) const {
  // Reduce the scalar into [0, N) first: exponents congruent mod N encrypt
  // the same plaintext (c*a mod N), so the reduction is semantics-preserving,
  // bounds the modexp at |N| bits however large the protocol-level scalar
  // is, and folds the negative-scalar case into the same single modexp.
  return mont_n2_.pow(c, scalar.mod_floor(n_));
}

BigInt PaillierPublicKey::mul_scalar_sum(std::span<const BigInt> cts,
                                         std::span<const BigInt> scalars) const {
  if (cts.size() != scalars.size()) {
    throw InvalidArgument("Paillier mul_scalar_sum: size mismatch");
  }
  // Reduce scalars into [0, N) first — same semantics as mul_scalar (the
  // exponent is only meaningful mod N) and it bounds the multi-exp width.
  std::vector<BigInt> reduced(scalars.size());
  for (std::size_t i = 0; i < scalars.size(); ++i) reduced[i] = scalars[i].mod_floor(n_);
  return bignum::multi_pow(mont_n2_, cts, reduced);
}

std::vector<BigInt> PaillierPublicKey::mul_scalar_sum_matrix(
    std::span<const BigInt> cts, const std::vector<std::vector<BigInt>>& scalars) const {
  std::vector<std::vector<BigInt>> reduced(scalars.size());
  for (std::size_t i = 0; i < scalars.size(); ++i) {
    reduced[i].resize(scalars[i].size());
    for (std::size_t c = 0; c < scalars[i].size(); ++c) {
      reduced[i][c] = scalars[i][c].mod_floor(n_);
    }
  }
  return bignum::multi_pow_matrix(mont_n2_, cts, reduced);
}

BigInt PaillierPublicKey::negate(const BigInt& c) const { return bignum::mod_inverse(c, n2_); }

BigInt PaillierPublicKey::rerandomize(const BigInt& c, crypto::Prg& prg) const {
  return rerandomize_with_randomness(c, random_unit(prg));
}

BigInt PaillierPublicKey::rerandomize_with_randomness(const BigInt& c, const BigInt& r) const {
  return rerandomize_with_factor(c, encryption_factor(r));
}

void PaillierPublicKey::serialize(Writer& w) const { bignum::write_bigint(w, n_); }

PaillierPublicKey PaillierPublicKey::deserialize(Reader& r) {
  return PaillierPublicKey(bignum::read_bigint(r));
}

namespace {

// Keygen guarantees gcd(N, phi(N)) = 1 (needed for the decryption equation
// to hold), but the constructor is public and can be handed adversarial
// factors — enforce the invariant here rather than trusting the caller.
BigInt checked_modulus(const BigInt& p, const BigInt& q) {
  if (p == q) throw InvalidArgument("PaillierPrivateKey: p and q must differ");
  if (p <= BigInt(2) || q <= BigInt(2) || !p.is_odd() || !q.is_odd()) {
    throw InvalidArgument("PaillierPrivateKey: p and q must be odd and > 2");
  }
  if (!bignum::gcd(p, q).is_one()) {
    throw InvalidArgument("PaillierPrivateKey: p and q must be coprime");
  }
  const BigInt n = p * q;
  if (!bignum::gcd(n, (p - BigInt(1)) * (q - BigInt(1))).is_one()) {
    throw InvalidArgument("PaillierPrivateKey: gcd(N, phi(N)) must be 1");
  }
  return n;
}

}  // namespace

PaillierPrivateKey::PaillierPrivateKey(BigInt p, BigInt q)
    : pk_(checked_modulus(p, q)),
      p_(std::move(p)),
      q_(std::move(q)),
      p2_(p_ * p_),
      q2_(q_ * q_),
      mont_p_(p_),
      mont_q_(q_),
      mont_p2_(p2_),
      mont_q2_(q2_),
      ep_(p_ - BigInt(1)),
      eq_(q_ - BigInt(1)) {
  lambda_ = (ep_ * eq_) / bignum::gcd(ep_, eq_);  // lcm(p-1, q-1)
  // mu = (L(g^lambda mod N^2))^{-1} mod N; with g = N+1,
  // g^lambda = 1 + lambda*N mod N^2, so L(g^lambda) = lambda mod N.
  mu_ = bignum::mod_inverse(lambda_, pk_.n());
  // CRT precomputation. For c = g^m r^N in Z_{N^2}^*, working mod p^2:
  // c^{p-1} = (1+N)^{m(p-1)} * (r^{p(p-1)})^q = 1 + m(p-1)N mod p^2, so
  // L_p(c^{p-1} mod p^2) = m * (p-1) * q mod p and multiplying by
  // hp = ((p-1)q)^{-1} mod p recovers m mod p. Symmetrically mod q.
  hp_ = bignum::mod_inverse(bignum::mod_mul(ep_, q_, p_), p_);
  hq_ = bignum::mod_inverse(bignum::mod_mul(eq_, p_, q_), q_);
  pinv_q_ = bignum::mod_inverse(p_, q_);
  p2inv_q2_ = bignum::mod_inverse(p2_, q2_);
}

// CRT encryption factor; the identity is in the file comment of paillier.h
// and proved in DESIGN.md "CRT Paillier encryption for the key holder". The
// secret exponents p and q run under the constant-time
// MontgomeryContext::pow, as decryption's p-1 and q-1 do; smoke-checked by
// the dudect harness in tests/ct_harness_test.cpp.
BigInt PaillierPrivateKey::encryption_factor(const BigInt& r) const {
  const BigInt fp = mont_p2_.pow(mont_p_.pow(r, q_), p_);
  const BigInt fq = mont_q2_.pow(mont_q_.pow(r, p_), q_);
  return bignum::crt_combine(fp, p2_, fq, q2_, p2inv_q2_);
}

BigInt PaillierPrivateKey::encrypt(const BigInt& m, crypto::Prg& prg) const {
  return pk_.encrypt_with_factor(m, encryption_factor(pk_.random_unit(prg)));
}

void PaillierPrivateKey::check_ciphertext(const BigInt& c) const {
  if (c.is_negative() || c >= pk_.n_squared()) {
    throw InvalidArgument("Paillier decrypt: ciphertext range");
  }
}

// CRT decryption. The two half-size modexps run under the constant-time
// MontgomeryContext::pow with the fixed secret exponents p-1 and q-1. The
// arithmetic after them takes the same steps for every plaintext: up is
// 1 + L_p * p with L_p in [0, p), so (up + p^2) / p = L_p + p lies in
// [p, 2p) and stays L_p mod p, and crt_combine keeps its operands nonzero
// too. A zero plaintext would otherwise reach BigInt's zero-operand early
// exits in each of these steps. What remains value-dependent are Knuth-D's
// quotient corrections in the divisions by the fixed key moduli and a limb
// more or less where a value crosses a limb boundary, smoke-checked by the
// dudect harness in tests/ct_harness_test.cpp.
BigInt PaillierPrivateKey::decrypt(const BigInt& c) const {
  obs::count(obs::Op::kPaillierDecrypt);
  check_ciphertext(c);
  const BigInt cp = c.mod_floor(p2_);
  const BigInt cq = c.mod_floor(q2_);
  // gcd(c, N) is 1 unless p or q divides c — check the residues directly
  // rather than running Euclid on the 2|N|-bit ciphertext.
  if (cp.mod_floor(p_).is_zero() || cq.mod_floor(q_).is_zero()) {
    throw CryptoError("Paillier decrypt: invalid ciphertext");
  }
  const BigInt up = mont_p2_.pow(cp, ep_);
  const BigInt mp = bignum::mod_mul((up + p2_) / p_, hp_, p_);
  const BigInt uq = mont_q2_.pow(cq, eq_);
  const BigInt mq = bignum::mod_mul((uq + q2_) / q_, hq_, q_);
  return bignum::crt_combine(mp, p_, mq, q_, pinv_q_);
}

BigInt PaillierPrivateKey::decrypt_reference(const BigInt& c) const {
  obs::count(obs::Op::kPaillierDecrypt);
  check_ciphertext(c);
  if (!bignum::gcd(c, pk_.n()).is_one()) {
    throw CryptoError("Paillier decrypt: invalid ciphertext");
  }
  const BigInt& n = pk_.n();
  const BigInt u = bignum::mod_pow(c, lambda_, pk_.n_squared());
  const BigInt l = (u - BigInt(1)) / n;  // L function
  return bignum::mod_mul(l, mu_, n);
}

std::vector<BigInt> PaillierPrivateKey::decrypt_all(std::span<const BigInt> cts) const {
  std::vector<BigInt> out(cts.size());
  common::parallel_for(cts.size(), [&](std::size_t i) { out[i] = decrypt(cts[i]); });
  return out;
}

BigInt PaillierPrivateKey::decrypt_signed(const BigInt& c) const {
  const BigInt m = decrypt(c);
  const BigInt half = pk_.n() >> 1;
  return m > half ? m - pk_.n() : m;
}

PaillierPrivateKey paillier_keygen(crypto::Prg& prg, std::size_t modulus_bits) {
  if (modulus_bits < 16) throw InvalidArgument("paillier_keygen: modulus too small");
  const std::size_t half = modulus_bits / 2;
  for (;;) {
    const BigInt p = bignum::random_prime(prg, half);
    const BigInt q = bignum::random_prime(prg, modulus_bits - half);
    if (p == q) continue;
    // Guarantee gcd(N, phi(N)) = 1 (needed for correctness); distinct
    // same-size primes give this automatically unless p | q-1 or q | p-1,
    // which trial keygen simply retries on.
    const BigInt n = p * q;
    if (n.bit_length() != modulus_bits) continue;
    if (!bignum::gcd(n, (p - BigInt(1)) * (q - BigInt(1))).is_one()) continue;
    return PaillierPrivateKey(p, q);
  }
}

}  // namespace spfe::he
