// High-volume algebraic property tests for the bignum substrate — the layer
// everything cryptographic reduces to, so it gets the heaviest fuzzing.
#include <gtest/gtest.h>

#include "bignum/bigint.h"
#include "bignum/modarith.h"
#include "bignum/primes.h"
#include "common/error.h"
#include "crypto/prg.h"

namespace spfe::bignum {
namespace {

class BigIntStress : public ::testing::TestWithParam<std::size_t> {};

TEST_P(BigIntStress, RingAxioms) {
  crypto::Prg prg("stress-ring-" + std::to_string(GetParam()));
  const std::size_t bits = GetParam();
  for (int trial = 0; trial < 40; ++trial) {
    const BigInt a = BigInt::random_bits(prg, 1 + prg.uniform(bits));
    const BigInt b = BigInt::random_bits(prg, 1 + prg.uniform(bits));
    const BigInt c = BigInt::random_bits(prg, 1 + prg.uniform(bits));
    // Commutativity, associativity, distributivity.
    EXPECT_EQ(a + b, b + a);
    EXPECT_EQ(a * b, b * a);
    EXPECT_EQ((a + b) + c, a + (b + c));
    EXPECT_EQ((a * b) * c, a * (b * c));
    EXPECT_EQ(a * (b + c), a * b + a * c);
    // Subtraction inverts addition.
    EXPECT_EQ(a + b - b, a);
    EXPECT_EQ(a - a, BigInt());
    // Sign symmetry.
    EXPECT_EQ((-a) * b, -(a * b));
    EXPECT_EQ((-a) * (-b), a * b);
  }
}

TEST_P(BigIntStress, DivisionInvariants) {
  crypto::Prg prg("stress-div-" + std::to_string(GetParam()));
  const std::size_t bits = GetParam();
  for (int trial = 0; trial < 40; ++trial) {
    const BigInt a = BigInt::random_bits(prg, 1 + prg.uniform(2 * bits));
    const BigInt b = BigInt::random_bits(prg, 1 + prg.uniform(bits));
    BigInt q, r;
    BigInt::divmod(a, b, q, r);
    EXPECT_EQ(q * b + r, a);
    EXPECT_LT(r, b);
    // Exact division round-trips.
    EXPECT_EQ((a * b) / b, a);
    EXPECT_TRUE(((a * b) % b).is_zero());
    // Shifts are powers of two.
    const std::size_t sh = prg.uniform(200);
    EXPECT_EQ(a << sh, a * (BigInt(1) << sh));
    EXPECT_EQ((a << sh) >> sh, a);
  }
}

TEST_P(BigIntStress, StringAndBytesRoundTrips) {
  crypto::Prg prg("stress-str-" + std::to_string(GetParam()));
  for (int trial = 0; trial < 20; ++trial) {
    const BigInt a = BigInt::random_bits(prg, 1 + prg.uniform(GetParam()));
    EXPECT_EQ(BigInt::from_string(a.to_string()), a);
    EXPECT_EQ(BigInt::from_hex(a.to_hex()), a);
    EXPECT_EQ(BigInt::from_bytes_be(a.to_bytes_be()), a);
    EXPECT_EQ(BigInt::from_string((-a).to_string()), -a);
  }
}

INSTANTIATE_TEST_SUITE_P(Widths, BigIntStress,
                         ::testing::Values(64u, 256u, 1024u, 4096u),
                         [](const auto& inst) { return "bits" + std::to_string(inst.param); });

TEST(ModArithStress, ExponentLaws) {
  crypto::Prg prg("stress-exp");
  for (int trial = 0; trial < 10; ++trial) {
    BigInt m = BigInt::random_bits(prg, 128 + prg.uniform(128));
    if (!m.is_odd()) m += BigInt(1);
    const MontgomeryContext ctx(m);
    const BigInt a = BigInt::random_below(prg, m);
    const BigInt e1 = BigInt::random_bits(prg, 48);
    const BigInt e2 = BigInt::random_bits(prg, 48);
    // a^(e1+e2) = a^e1 * a^e2 (mod m)
    EXPECT_EQ(ctx.pow(a, e1 + e2), mod_mul(ctx.pow(a, e1), ctx.pow(a, e2), m));
    // (a^e1)^e2 = a^(e1*e2) (mod m)
    EXPECT_EQ(ctx.pow(ctx.pow(a, e1), e2), ctx.pow(a, e1 * e2));
  }
}

TEST(ModArithStress, InverseIsInvolutive) {
  crypto::Prg prg("stress-inv");
  const BigInt p = random_prime(prg, 128, 16);
  for (int trial = 0; trial < 50; ++trial) {
    const BigInt a = BigInt::random_below(prg, p - BigInt(1)) + BigInt(1);
    const BigInt inv = mod_inverse(a, p);
    EXPECT_EQ(mod_mul(a, inv, p), BigInt(1));
    EXPECT_EQ(mod_inverse(inv, p), a);
  }
}

TEST(ModArithStress, FermatAndEulerOnRandomPrimes) {
  crypto::Prg prg("stress-fermat");
  for (const std::size_t bits : {32u, 64u, 128u}) {
    const BigInt p = random_prime(prg, bits, 24);
    const MontgomeryContext ctx(p);
    for (int trial = 0; trial < 10; ++trial) {
      const BigInt a = BigInt::random_below(prg, p - BigInt(1)) + BigInt(1);
      EXPECT_EQ(ctx.pow(a, p - BigInt(1)), BigInt(1)) << bits << " bits";
      // Euler criterion consistency with the Jacobi symbol.
      const BigInt ls = ctx.pow(a, (p - BigInt(1)) >> 1);
      const int j = jacobi(a, p);
      EXPECT_EQ(ls.is_one() ? 1 : -1, j);
    }
  }
}

TEST(ModArithStress, CrtAgreesWithDirectReduction) {
  crypto::Prg prg("stress-crt");
  const BigInt p = random_prime(prg, 64, 16);
  BigInt q = random_prime(prg, 64, 16);
  while (q == p) q = random_prime(prg, 64, 16);
  const BigInt p_inv = mod_inverse(p, q);
  for (int trial = 0; trial < 30; ++trial) {
    const BigInt x = BigInt::random_below(prg, p * q);
    EXPECT_EQ(crt_combine(x % p, p, x % q, q, p_inv), x);
  }
}

TEST(PrimesStress, GeneratedPrimesAreOddAndSized) {
  crypto::Prg prg("stress-primes");
  for (int trial = 0; trial < 6; ++trial) {
    const std::size_t bits = 48 + prg.uniform(80);
    const BigInt p = random_prime(prg, bits, 16);
    EXPECT_EQ(p.bit_length(), bits);
    EXPECT_TRUE(p.is_odd());
    // p-1 and p+1 must be composite (trivially even), and a second
    // independent Miller-Rabin pass agrees.
    crypto::Prg other("independent-check" + std::to_string(trial));
    EXPECT_TRUE(is_probable_prime(p, other, 32));
  }
}

}  // namespace
}  // namespace spfe::bignum
