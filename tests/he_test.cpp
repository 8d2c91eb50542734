#include <gtest/gtest.h>

#include "bignum/primes.h"
#include "common/error.h"
#include "he/goldwasser_micali.h"
#include "he/paillier.h"

namespace spfe::he {
namespace {

using bignum::BigInt;

class PaillierTest : public ::testing::Test {
 protected:
  // 256-bit keys keep the unit suite fast; bench_primitives covers 512/1024.
  PaillierTest() : prg_("paillier-test"), sk_(paillier_keygen(prg_, 256)) {}

  crypto::Prg prg_;
  PaillierPrivateKey sk_;
};

TEST_F(PaillierTest, EncryptDecryptRoundTrip) {
  const auto& pk = sk_.public_key();
  for (const std::uint64_t m : {0ull, 1ull, 42ull, 1000000007ull}) {
    const BigInt c = pk.encrypt(BigInt(m), prg_);
    EXPECT_EQ(sk_.decrypt(c), BigInt(m));
  }
  // Near the modulus.
  const BigInt big = pk.n() - BigInt(1);
  EXPECT_EQ(sk_.decrypt(pk.encrypt(big, prg_)), big);
}

TEST_F(PaillierTest, EncryptionIsRandomized) {
  const auto& pk = sk_.public_key();
  EXPECT_NE(pk.encrypt(BigInt(7), prg_), pk.encrypt(BigInt(7), prg_));
}

TEST_F(PaillierTest, AdditiveHomomorphism) {
  const auto& pk = sk_.public_key();
  const BigInt a(123456789), b(987654321);
  const BigInt sum = pk.add(pk.encrypt(a, prg_), pk.encrypt(b, prg_));
  EXPECT_EQ(sk_.decrypt(sum), a + b);
}

TEST_F(PaillierTest, HomomorphismWrapsModN) {
  const auto& pk = sk_.public_key();
  const BigInt a = pk.n() - BigInt(5);
  const BigInt b(12);
  const BigInt sum = pk.add(pk.encrypt(a, prg_), pk.encrypt(b, prg_));
  EXPECT_EQ(sk_.decrypt(sum), BigInt(7));
}

TEST_F(PaillierTest, ScalarMultiplication) {
  const auto& pk = sk_.public_key();
  const BigInt c = pk.encrypt(BigInt(1000), prg_);
  EXPECT_EQ(sk_.decrypt(pk.mul_scalar(c, BigInt(37))), BigInt(37000));
  EXPECT_EQ(sk_.decrypt(pk.mul_scalar(c, BigInt(0))), BigInt(0));
  // Negative scalar uses the group inverse: -2 * 1000 = N - 2000.
  EXPECT_EQ(sk_.decrypt(pk.mul_scalar(c, BigInt(-2))), pk.n() - BigInt(2000));
  EXPECT_EQ(sk_.decrypt_signed(pk.mul_scalar(c, BigInt(-2))), BigInt(-2000));
}

TEST_F(PaillierTest, NegateAndSignedDecrypt) {
  const auto& pk = sk_.public_key();
  const BigInt c = pk.negate(pk.encrypt(BigInt(555), prg_));
  EXPECT_EQ(sk_.decrypt_signed(c), BigInt(-555));
}

TEST_F(PaillierTest, RerandomizePreservesPlaintext) {
  const auto& pk = sk_.public_key();
  const BigInt c = pk.encrypt(BigInt(777), prg_);
  const BigInt c2 = pk.rerandomize(c, prg_);
  EXPECT_NE(c, c2);
  EXPECT_EQ(sk_.decrypt(c2), BigInt(777));
}

TEST_F(PaillierTest, LinearCombination) {
  // decrypt(prod E(a_i)^{w_i}) = sum w_i a_i — the §4 weighted-sum core.
  const auto& pk = sk_.public_key();
  const std::uint64_t values[] = {10, 20, 30};
  const std::uint64_t weights[] = {3, 5, 7};
  BigInt acc = pk.encrypt(BigInt(0), prg_);
  for (int i = 0; i < 3; ++i) {
    acc = pk.add(acc, pk.mul_scalar(pk.encrypt(BigInt(values[i]), prg_), BigInt(weights[i])));
  }
  EXPECT_EQ(sk_.decrypt(acc), BigInt(10 * 3 + 20 * 5 + 30 * 7));
}

TEST_F(PaillierTest, PublicKeySerializationRoundTrip) {
  const auto& pk = sk_.public_key();
  Writer w;
  pk.serialize(w);
  Reader r(w.data());
  const PaillierPublicKey pk2 = PaillierPublicKey::deserialize(r);
  EXPECT_EQ(pk2, pk);
  // A ciphertext made by the deserialized key decrypts correctly.
  EXPECT_EQ(sk_.decrypt(pk2.encrypt(BigInt(31337), prg_)), BigInt(31337));
}

TEST_F(PaillierTest, DecryptValidatesRange) {
  EXPECT_THROW(sk_.decrypt(sk_.public_key().n_squared()), InvalidArgument);
  EXPECT_THROW(sk_.decrypt(BigInt(-1)), InvalidArgument);
  EXPECT_THROW(sk_.decrypt_reference(sk_.public_key().n_squared()), InvalidArgument);
  EXPECT_THROW(sk_.decrypt_reference(BigInt(-1)), InvalidArgument);
}

TEST_F(PaillierTest, DecryptBoundaryPlaintexts) {
  // m = 0, N-1, floor(N/2), floor(N/2)+1 — the wrap points of decrypt and
  // decrypt_signed. N is odd, so half = (N-1)/2 and half+1 decrypts signed
  // to -half.
  const auto& pk = sk_.public_key();
  const BigInt n = pk.n();
  const BigInt half = n >> 1;
  const struct {
    BigInt m;
    BigInt expected_signed;
  } cases[] = {
      {BigInt(0), BigInt(0)},
      {n - BigInt(1), BigInt(-1)},
      {half, half},
      {half + BigInt(1), -half},
  };
  for (const auto& tc : cases) {
    const BigInt c = pk.encrypt(tc.m, prg_);
    EXPECT_EQ(sk_.decrypt(c), tc.m);
    EXPECT_EQ(sk_.decrypt_reference(c), tc.m);
    EXPECT_EQ(sk_.decrypt_signed(c), tc.expected_signed);
  }
}

TEST_F(PaillierTest, CrtMatchesReferenceOnRandomCiphertexts) {
  // 1000 uniform elements of Z_{N^2}^* — not just well-formed encryptions —
  // must decrypt identically through the CRT and reference paths.
  const BigInt& n2 = sk_.public_key().n_squared();
  const BigInt& n = sk_.public_key().n();
  std::size_t checked = 0;
  while (checked < 1000) {
    const BigInt c = BigInt::random_below(prg_, n2);
    if (!bignum::gcd(c, n).is_one()) continue;  // negligible; would factor N
    EXPECT_EQ(sk_.decrypt(c), sk_.decrypt_reference(c));
    ++checked;
  }
}

// The key holder's CRT encryption must give the public path's factor and
// ciphertext for every r in [1, N): seeded draws, then the boundaries,
// including the r that share a prime with N (there r^N is 0 mod p^2 or
// mod q^2).
TEST_F(PaillierTest, KeyHolderEncryptionEqualsPublicEncryption) {
  for (const std::size_t bits : {256u, 512u, 1024u}) {
    BigInt p, q;
    do {
      p = bignum::random_prime(prg_, bits / 2);
      q = bignum::random_prime(prg_, bits - bits / 2);
    } while (p == q || !bignum::gcd(p * q, (p - BigInt(1)) * (q - BigInt(1))).is_one());
    const PaillierPrivateKey sk(p, q);
    const PaillierPublicKey& pk = sk.public_key();
    const BigInt& n = pk.n();

    for (int i = 0; i < 1000; ++i) {
      const BigInt r = pk.random_unit(prg_);
      ASSERT_EQ(sk.encryption_factor(r), pk.encryption_factor(r)) << bits << "-bit, draw " << i;
    }
    for (const BigInt& r : {BigInt(1), BigInt(2), n - BigInt(1), p, q, p + p, n - q}) {
      EXPECT_EQ(sk.encryption_factor(r), pk.encryption_factor(r))
          << bits << "-bit, r = " << r.to_hex();
    }

    const BigInt random_m = BigInt::random_below(prg_, n);
    for (const BigInt& m : {BigInt(0), BigInt(1), n - BigInt(1), random_m}) {
      const crypto::Prg::Seed seed = prg_.fork_seed("encrypt-" + m.to_hex());
      crypto::Prg key_holder(seed), public_side(seed);
      const BigInt c = sk.encrypt(m, key_holder);
      EXPECT_EQ(c.to_bytes_be_padded(pk.ciphertext_bytes()),
                pk.encrypt(m, public_side).to_bytes_be_padded(pk.ciphertext_bytes()))
          << bits << "-bit, m = " << m.to_hex();
      EXPECT_EQ(key_holder.u64(), public_side.u64()) << "Prg states differ after encrypt";
      EXPECT_EQ(sk.decrypt(c), m);
    }
  }
}

TEST_F(PaillierTest, DecryptAllMatchesDecrypt) {
  const auto& pk = sk_.public_key();
  std::vector<BigInt> cts;
  for (std::uint64_t m = 0; m < 50; ++m) cts.push_back(pk.encrypt(BigInt(m * m + 1), prg_));
  const std::vector<BigInt> plains = sk_.decrypt_all(cts);
  ASSERT_EQ(plains.size(), cts.size());
  for (std::size_t i = 0; i < cts.size(); ++i) {
    EXPECT_EQ(plains[i], BigInt(static_cast<std::uint64_t>(i * i + 1)));
  }
}

TEST_F(PaillierTest, MulScalarReducesOversizedScalars) {
  // Regression: the scalar used to be fed raw into the modexp, so a scalar
  // of k*N + 37 cost a |k*N|-bit exponentiation. It must now be reduced mod
  // N first — same plaintext, bounded cost. Bitwise equality with the
  // pre-reduced scalar proves the reduction happened.
  const auto& pk = sk_.public_key();
  const BigInt c = pk.encrypt(BigInt(1000), prg_);
  const BigInt huge = pk.n() * BigInt(12345) + BigInt(37);
  EXPECT_EQ(pk.mul_scalar(c, huge), pk.mul_scalar(c, BigInt(37)));
  EXPECT_EQ(sk_.decrypt(pk.mul_scalar(c, huge)), BigInt(37000));
  // Negative scalars reduce into [0, N) through the same path.
  const BigInt neg = -(pk.n() * BigInt(99) + BigInt(2));
  EXPECT_EQ(pk.mul_scalar(c, neg), pk.mul_scalar(c, BigInt(-2)));
  EXPECT_EQ(sk_.decrypt_signed(pk.mul_scalar(c, neg)), BigInt(-2000));
}

TEST_F(PaillierTest, MulScalarSumMatchesFoldedMulScalar) {
  // The batch API must be byte-identical to folding mul_scalar with add —
  // it changes evaluation order, not the group element.
  const auto& pk = sk_.public_key();
  std::vector<BigInt> cts, scalars;
  for (const std::uint64_t v : {10ull, 20ull, 30ull, 40ull}) {
    cts.push_back(pk.encrypt(BigInt(v), prg_));
  }
  // Mix of zero, one, oversized, and negative scalars.
  scalars = {BigInt(0), BigInt(1), pk.n() * BigInt(3) + BigInt(7), BigInt(-5)};
  BigInt folded;
  for (std::size_t i = 0; i < cts.size(); ++i) {
    const BigInt term = pk.mul_scalar(cts[i], scalars[i]);
    folded = i == 0 ? term : pk.add(folded, term);
  }
  EXPECT_EQ(pk.mul_scalar_sum(cts, scalars), folded);
  EXPECT_EQ(sk_.decrypt_signed(pk.mul_scalar_sum(cts, scalars)),
            BigInt(20 * 1 + 30 * 7 - 40 * 5));
  const std::vector<BigInt> short_scalars = {BigInt(1)};
  EXPECT_THROW(pk.mul_scalar_sum(cts, short_scalars), InvalidArgument);
}

TEST_F(PaillierTest, MulScalarSumMatrixMatchesColumns) {
  const auto& pk = sk_.public_key();
  constexpr std::size_t kBases = 3, kCols = 5;
  std::vector<BigInt> cts(kBases);
  for (std::size_t i = 0; i < kBases; ++i) cts[i] = pk.encrypt(BigInt(i + 1), prg_);
  std::vector<std::vector<BigInt>> scalars(kBases, std::vector<BigInt>(kCols));
  for (std::size_t i = 0; i < kBases; ++i) {
    for (std::size_t c = 0; c < kCols; ++c) scalars[i][c] = BigInt(7 * i + 13 * c);
  }
  const std::vector<BigInt> out = pk.mul_scalar_sum_matrix(cts, scalars);
  ASSERT_EQ(out.size(), kCols);
  for (std::size_t c = 0; c < kCols; ++c) {
    std::vector<BigInt> col(kBases);
    for (std::size_t i = 0; i < kBases; ++i) col[i] = scalars[i][c];
    EXPECT_EQ(out[c], pk.mul_scalar_sum(cts, col)) << "col=" << c;
  }
}

TEST(Paillier, RandomUnitCoversFullRange) {
  // Tiny modulus (N = 5 * 7) so 2000 draws cover [1, N) exhaustively: the
  // old random_below(N-1) + 1 draw could never produce N - 1, and 0 must
  // never appear.
  const PaillierPublicKey pk(BigInt(35));
  crypto::Prg prg("random-unit");
  std::vector<int> seen(35, 0);
  for (int i = 0; i < 2000; ++i) {
    const BigInt r = pk.random_unit(prg);
    ASSERT_FALSE(r.is_zero());
    ASSERT_LT(r, BigInt(35));
    seen[r.to_u64()] += 1;
  }
  EXPECT_EQ(seen[0], 0);
  for (int v = 1; v < 35; ++v) EXPECT_GT(seen[v], 0) << v;
}

TEST(Paillier, PrivateKeyValidatesFactors) {
  // p | q-1 makes gcd(N, phi(N)) = p != 1: the decryption equation breaks,
  // so the constructor must reject it (3 | 7-1 with N = 21, phi = 12).
  EXPECT_THROW(PaillierPrivateKey(BigInt(3), BigInt(7)), InvalidArgument);
  EXPECT_THROW(PaillierPrivateKey(BigInt(7), BigInt(3)), InvalidArgument);
  EXPECT_THROW(PaillierPrivateKey(BigInt(5), BigInt(5)), InvalidArgument);   // p == q
  EXPECT_THROW(PaillierPrivateKey(BigInt(4), BigInt(7)), InvalidArgument);   // even
  EXPECT_THROW(PaillierPrivateKey(BigInt(1), BigInt(7)), InvalidArgument);   // p <= 2
  EXPECT_THROW(PaillierPrivateKey(BigInt(-5), BigInt(7)), InvalidArgument);  // negative
  // A valid small pair still constructs and round-trips (explicit coprime
  // randomness: with N = 143 a random r has a non-negligible common factor).
  const PaillierPrivateKey sk(BigInt(11), BigInt(13));
  EXPECT_EQ(sk.decrypt(sk.public_key().encrypt_with_randomness(BigInt(42), BigInt(2))),
            BigInt(42));
}

TEST(Paillier, KeygenValidatesSize) {
  crypto::Prg prg("kg");
  EXPECT_THROW(paillier_keygen(prg, 8), InvalidArgument);
}

TEST(Paillier, DeterministicEncryptionWithExplicitRandomness) {
  crypto::Prg prg("det");
  const auto sk = paillier_keygen(prg, 128);
  const auto& pk = sk.public_key();
  const BigInt r(12345);
  EXPECT_EQ(pk.encrypt_with_randomness(BigInt(9), r), pk.encrypt_with_randomness(BigInt(9), r));
  EXPECT_EQ(sk.decrypt(pk.encrypt_with_randomness(BigInt(9), r)), BigInt(9));
}

class GmTest : public ::testing::Test {
 protected:
  GmTest() : prg_("gm-test"), sk_(gm_keygen(prg_, 256)) {}

  crypto::Prg prg_;
  GmPrivateKey sk_;
};

TEST_F(GmTest, EncryptDecryptBits) {
  const auto& pk = sk_.public_key();
  for (int i = 0; i < 20; ++i) {
    EXPECT_FALSE(sk_.decrypt(pk.encrypt(false, prg_)));
    EXPECT_TRUE(sk_.decrypt(pk.encrypt(true, prg_)));
  }
}

TEST_F(GmTest, XorHomomorphism) {
  const auto& pk = sk_.public_key();
  for (const bool a : {false, true}) {
    for (const bool b : {false, true}) {
      const auto c = pk.xor_ct(pk.encrypt(a, prg_), pk.encrypt(b, prg_));
      EXPECT_EQ(sk_.decrypt(c), a != b);
    }
  }
}

TEST_F(GmTest, RerandomizePreservesBit) {
  const auto& pk = sk_.public_key();
  const auto c = pk.encrypt(true, prg_);
  const auto c2 = pk.rerandomize(c, prg_);
  EXPECT_NE(c, c2);
  EXPECT_TRUE(sk_.decrypt(c2));
}

TEST_F(GmTest, SerializationRoundTrip) {
  Writer w;
  sk_.public_key().serialize(w);
  Reader r(w.data());
  const GmPublicKey pk2 = GmPublicKey::deserialize(r);
  EXPECT_TRUE(sk_.decrypt(pk2.encrypt(true, prg_)));
}

TEST(Gm, RandomUnitCoversFullRange) {
  const GmPublicKey pk(BigInt(35), BigInt(4));  // jacobi(4, 35) = +1
  crypto::Prg prg("gm-random-unit");
  std::vector<int> seen(35, 0);
  for (int i = 0; i < 2000; ++i) {
    const BigInt r = pk.random_unit(prg);
    ASSERT_FALSE(r.is_zero());
    ASSERT_LT(r, BigInt(35));
    seen[r.to_u64()] += 1;
  }
  EXPECT_EQ(seen[0], 0);
  for (int v = 1; v < 35; ++v) EXPECT_GT(seen[v], 0) << v;
}

TEST(Gm, PublicKeyValidatesZ) {
  crypto::Prg prg("gm-validate");
  const auto sk = gm_keygen(prg, 128);
  // z with Jacobi symbol -1 must be rejected.
  const BigInt n = sk.public_key().n();
  BigInt bad(2);
  while (bignum::jacobi(bad, n) != -1) bad += BigInt(1);
  EXPECT_THROW(GmPublicKey(n, bad), InvalidArgument);
}

}  // namespace
}  // namespace spfe::he
