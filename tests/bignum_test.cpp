#include <gtest/gtest.h>

#include <cstdint>

#include "bignum/bigint.h"
#include "bignum/modarith.h"
#include "bignum/primes.h"
#include "bignum/serialize.h"
#include "common/error.h"
#include "crypto/prg.h"

namespace spfe::bignum {
namespace {

TEST(BigInt, ConstructionAndToString) {
  EXPECT_EQ(BigInt().to_string(), "0");
  EXPECT_EQ(BigInt(42).to_string(), "42");
  EXPECT_EQ(BigInt(-42).to_string(), "-42");
  EXPECT_EQ(BigInt(std::int64_t{INT64_MIN}).to_string(), "-9223372036854775808");
  EXPECT_EQ(BigInt(~std::uint64_t(0)).to_string(), "18446744073709551615");
}

TEST(BigInt, FromStringRoundTrip) {
  const char* cases[] = {"0",
                         "1",
                         "-1",
                         "123456789",
                         "340282366920938463463374607431768211456",  // 2^128
                         "-99999999999999999999999999999999999999"};
  for (const char* s : cases) {
    EXPECT_EQ(BigInt::from_string(s).to_string(), s);
  }
}

TEST(BigInt, HexRoundTrip) {
  EXPECT_EQ(BigInt::from_hex("deadbeef").to_hex(), "deadbeef");
  EXPECT_EQ(BigInt::from_string("0xDEADBEEF").to_u64(), 0xdeadbeefu);
  EXPECT_EQ(BigInt().to_hex(), "0");
  const BigInt big = BigInt::from_hex("123456789abcdef0123456789abcdef0123456789");
  EXPECT_EQ(big.to_hex(), "123456789abcdef0123456789abcdef0123456789");
}

TEST(BigInt, FromStringRejectsGarbage) {
  EXPECT_THROW(BigInt::from_string(""), InvalidArgument);
  EXPECT_THROW(BigInt::from_string("12a4"), InvalidArgument);
  EXPECT_THROW(BigInt::from_string("-"), InvalidArgument);
}

TEST(BigInt, AdditionSubtraction) {
  const BigInt a = BigInt::from_string("123456789012345678901234567890");
  const BigInt b = BigInt::from_string("987654321098765432109876543210");
  EXPECT_EQ((a + b).to_string(), "1111111110111111111011111111100");
  EXPECT_EQ((b - a).to_string(), "864197532086419753208641975320");
  EXPECT_EQ((a - b).to_string(), "-864197532086419753208641975320");
  EXPECT_EQ((a - a).to_string(), "0");
  EXPECT_EQ((a + (-a)).to_string(), "0");
}

TEST(BigInt, MixedSignArithmetic) {
  const BigInt a(100), b(-30);
  EXPECT_EQ((a + b).to_u64(), 70u);
  EXPECT_EQ((b + a).to_u64(), 70u);
  EXPECT_EQ((a * b).to_string(), "-3000");
  EXPECT_EQ((b * b).to_string(), "900");
}

TEST(BigInt, MultiplicationKnownValue) {
  const BigInt a = BigInt::from_string("123456789012345678901234567890");
  EXPECT_EQ((a * a).to_string(),
            "15241578753238836750495351562536198787501905199875019052100");
}

TEST(BigInt, LargeOperandProductsDivideBack) {
  // Operands of 47-56 and 40 limbs, far wider than any protocol multiplies.
  crypto::Prg prg("karatsuba");
  for (int trial = 0; trial < 10; ++trial) {
    const BigInt a = BigInt::random_bits(prg, 3000 + 64 * trial);
    const BigInt b = BigInt::random_bits(prg, 2500);
    const BigInt prod = a * b;
    // Cross-check via divmod: prod / a == b and prod % a == 0.
    EXPECT_EQ(prod / a, b);
    EXPECT_TRUE((prod % a).is_zero());
  }
}

TEST(BigInt, DivisionTruncatedSemantics) {
  EXPECT_EQ((BigInt(7) / BigInt(2)).to_string(), "3");
  EXPECT_EQ((BigInt(-7) / BigInt(2)).to_string(), "-3");
  EXPECT_EQ((BigInt(7) / BigInt(-2)).to_string(), "-3");
  EXPECT_EQ((BigInt(-7) / BigInt(-2)).to_string(), "3");
  EXPECT_EQ((BigInt(7) % BigInt(2)).to_string(), "1");
  EXPECT_EQ((BigInt(-7) % BigInt(2)).to_string(), "-1");
  EXPECT_EQ((BigInt(7) % BigInt(-2)).to_string(), "1");
}

TEST(BigInt, DivisionByZeroThrows) {
  EXPECT_THROW(BigInt(1) / BigInt(0), InvalidArgument);
  EXPECT_THROW(BigInt(1) % BigInt(0), InvalidArgument);
}

TEST(BigInt, DivModPropertyRandom) {
  crypto::Prg prg("divmod");
  for (int trial = 0; trial < 200; ++trial) {
    const std::size_t abits = 1 + prg.uniform(700);
    const std::size_t bbits = 1 + prg.uniform(400);
    const BigInt a = BigInt::random_bits(prg, abits);
    const BigInt b = BigInt::random_bits(prg, bbits);
    BigInt q, r;
    BigInt::divmod(a, b, q, r);
    EXPECT_EQ(q * b + r, a);
    EXPECT_LT(r.abs(), b.abs());
  }
}

TEST(BigInt, ModFloorAlwaysNonNegative) {
  const BigInt m(13);
  EXPECT_EQ(BigInt(-1).mod_floor(m).to_u64(), 12u);
  EXPECT_EQ(BigInt(-13).mod_floor(m).to_u64(), 0u);
  EXPECT_EQ(BigInt(27).mod_floor(m).to_u64(), 1u);
  EXPECT_THROW(BigInt(5).mod_floor(BigInt(-3)), InvalidArgument);
}

TEST(BigInt, Shifts) {
  const BigInt one(1);
  EXPECT_EQ((one << 200).to_hex(),
            "100000000000000000000000000000000000000000000000000");
  EXPECT_EQ(((one << 200) >> 200), one);
  EXPECT_EQ((BigInt(0xff) << 4).to_u64(), 0xff0u);
  EXPECT_EQ((BigInt(0xff0) >> 4).to_u64(), 0xffu);
  EXPECT_TRUE((BigInt(3) >> 10).is_zero());
}

TEST(BigInt, BitLengthAndBit) {
  EXPECT_EQ(BigInt().bit_length(), 0u);
  EXPECT_EQ(BigInt(1).bit_length(), 1u);
  EXPECT_EQ(BigInt(255).bit_length(), 8u);
  EXPECT_EQ(BigInt(256).bit_length(), 9u);
  EXPECT_EQ((BigInt(1) << 1000).bit_length(), 1001u);
  const BigInt v(0b1011);
  EXPECT_TRUE(v.bit(0));
  EXPECT_TRUE(v.bit(1));
  EXPECT_FALSE(v.bit(2));
  EXPECT_TRUE(v.bit(3));
  EXPECT_FALSE(v.bit(64));
}

TEST(BigInt, Comparisons) {
  EXPECT_LT(BigInt(-5), BigInt(3));
  EXPECT_LT(BigInt(-5), BigInt(-3));
  EXPECT_GT(BigInt(5), BigInt(3));
  EXPECT_EQ(BigInt(5), BigInt(5));
  EXPECT_LT(BigInt(5), BigInt::from_string("123456789123456789123456789"));
}

TEST(BigInt, BytesRoundTrip) {
  const BigInt v = BigInt::from_hex("0102030405060708090a0b0c0d0e0f");
  const Bytes be = v.to_bytes_be();
  EXPECT_EQ(be.size(), 15u);
  EXPECT_EQ(BigInt::from_bytes_be(be), v);
  EXPECT_TRUE(BigInt().to_bytes_be().empty());

  const Bytes padded = v.to_bytes_be_padded(20);
  EXPECT_EQ(padded.size(), 20u);
  EXPECT_EQ(BigInt::from_bytes_be(padded), v);
  EXPECT_THROW(v.to_bytes_be_padded(3), InvalidArgument);
}

TEST(BigInt, SerializeRoundTrip) {
  const BigInt cases[] = {BigInt(), BigInt(1), BigInt(-1),
                          BigInt::from_string("123456789012345678901234567890"),
                          -BigInt::from_string("99999999999999999999")};
  Writer w;
  for (const auto& v : cases) write_bigint(w, v);
  Reader r(w.data());
  for (const auto& v : cases) EXPECT_EQ(read_bigint(r), v);
  r.expect_done();
}

TEST(BigInt, RandomBelowInRange) {
  crypto::Prg prg("rb");
  const BigInt bound = BigInt::from_string("1000000000000000000000000");
  for (int i = 0; i < 100; ++i) {
    const BigInt v = BigInt::random_below(prg, bound);
    EXPECT_LT(v, bound);
    EXPECT_FALSE(v.is_negative());
  }
}

TEST(BigInt, RandomBitsExactWidth) {
  crypto::Prg prg("rbits");
  for (std::size_t bits : {1u, 2u, 63u, 64u, 65u, 129u, 1000u}) {
    EXPECT_EQ(BigInt::random_bits(prg, bits).bit_length(), bits);
  }
}

TEST(ModArith, GcdAndExtGcd) {
  EXPECT_EQ(gcd(BigInt(12), BigInt(18)).to_u64(), 6u);
  EXPECT_EQ(gcd(BigInt(0), BigInt(5)).to_u64(), 5u);
  EXPECT_EQ(gcd(BigInt(-12), BigInt(18)).to_u64(), 6u);

  const BigInt a(240), b(46);
  const auto e = ext_gcd(a, b);
  EXPECT_EQ(e.g.to_u64(), 2u);
  EXPECT_EQ(a * e.x + b * e.y, e.g);
}

TEST(ModArith, ModInverse) {
  const BigInt m(101);
  for (std::uint64_t a = 1; a < 101; ++a) {
    const BigInt inv = mod_inverse(BigInt(a), m);
    EXPECT_EQ(mod_mul(BigInt(a), inv, m).to_u64(), 1u);
  }
  EXPECT_THROW(mod_inverse(BigInt(6), BigInt(9)), CryptoError);
}

TEST(ModArith, ModPowSmall) {
  EXPECT_EQ(mod_pow(BigInt(2), BigInt(10), BigInt(1001)).to_u64(), 23u);
  EXPECT_EQ(mod_pow(BigInt(3), BigInt(0), BigInt(7)).to_u64(), 1u);
  EXPECT_EQ(mod_pow(BigInt(0), BigInt(5), BigInt(7)).to_u64(), 0u);
  // Fermat: a^(p-1) = 1 mod p.
  const BigInt p(1000003);
  for (std::uint64_t a : {2ull, 3ull, 999999ull}) {
    EXPECT_EQ(mod_pow(BigInt(a), p - BigInt(1), p).to_u64(), 1u);
  }
}

TEST(ModArith, ModPowEvenModulus) {
  // mod_pow is Montgomery's pow: an even modulus is rejected, as
  // MontgomeryContext rejects it.
  EXPECT_THROW(mod_pow(BigInt(3), BigInt(4), BigInt(100)), InvalidArgument);
  EXPECT_THROW(mod_pow(BigInt(7), BigInt(13), BigInt(64)), InvalidArgument);
}

TEST(ModArith, MontgomeryMatchesPlainPow) {
  crypto::Prg prg("mont");
  for (int trial = 0; trial < 20; ++trial) {
    BigInt m = BigInt::random_bits(prg, 256);
    if (!m.is_odd()) m += BigInt(1);
    const MontgomeryContext ctx(m);
    const BigInt base = BigInt::random_below(prg, m);
    const BigInt exp = BigInt::random_bits(prg, 64);
    // Reference: naive square-and-multiply with divmod reduction.
    BigInt expect(1);
    for (std::size_t i = exp.bit_length(); i-- > 0;) {
      expect = mod_mul(expect, expect, m);
      if (exp.bit(i)) expect = mod_mul(expect, base, m);
    }
    EXPECT_EQ(ctx.pow(base, exp), expect);
  }
}

TEST(ModArith, MontgomeryRejectsEvenModulus) {
  EXPECT_THROW(MontgomeryContext(BigInt(100)), InvalidArgument);
  EXPECT_THROW(MontgomeryContext(BigInt(1)), InvalidArgument);
}

TEST(ModArith, Jacobi) {
  // (a/7): QRs mod 7 are {1, 2, 4}.
  EXPECT_EQ(jacobi(BigInt(1), BigInt(7)), 1);
  EXPECT_EQ(jacobi(BigInt(2), BigInt(7)), 1);
  EXPECT_EQ(jacobi(BigInt(3), BigInt(7)), -1);
  EXPECT_EQ(jacobi(BigInt(4), BigInt(7)), 1);
  EXPECT_EQ(jacobi(BigInt(5), BigInt(7)), -1);
  EXPECT_EQ(jacobi(BigInt(6), BigInt(7)), -1);
  EXPECT_EQ(jacobi(BigInt(7), BigInt(7)), 0);
  EXPECT_EQ(jacobi(BigInt(0), BigInt(9)), 0);
  EXPECT_THROW(jacobi(BigInt(3), BigInt(8)), InvalidArgument);
}

TEST(ModArith, JacobiMatchesEulerForPrimes) {
  crypto::Prg prg("jacobi");
  const BigInt p(10007);  // prime
  const BigInt exponent = (p - BigInt(1)) >> 1;
  for (int i = 0; i < 50; ++i) {
    const BigInt a = BigInt::random_below(prg, p - BigInt(1)) + BigInt(1);
    const BigInt euler = mod_pow(a, exponent, p);
    const int expect = euler.is_one() ? 1 : -1;
    EXPECT_EQ(jacobi(a, p), expect);
  }
}

TEST(ModArith, CrtCombine) {
  // x = 2 mod 3, x = 3 mod 5 -> x = 8 mod 15.
  EXPECT_EQ(crt_combine(BigInt(2), BigInt(3), BigInt(3), BigInt(5), BigInt(2)).to_u64(), 8u);
  crypto::Prg prg("crt");
  const BigInt m1(10007), m2(10009);
  const BigInt inv = mod_inverse(m1, m2);
  for (int i = 0; i < 20; ++i) {
    const BigInt x = BigInt::random_below(prg, m1 * m2);
    EXPECT_EQ(crt_combine(x % m1, m1, x % m2, m2, inv), x);
  }
  // Zero residues and the largest ones, which the combine must not treat
  // apart: x = 0 and x = m1 * m2 - 1.
  EXPECT_EQ(crt_combine(BigInt(0), m1, BigInt(0), m2, inv), BigInt(0));
  EXPECT_EQ(crt_combine(m1 - BigInt(1), m1, m2 - BigInt(1), m2, inv), m1 * m2 - BigInt(1));
}

TEST(Primes, SmallValues) {
  crypto::Prg prg("primes");
  EXPECT_FALSE(is_probable_prime(BigInt(0), prg));
  EXPECT_FALSE(is_probable_prime(BigInt(1), prg));
  EXPECT_TRUE(is_probable_prime(BigInt(2), prg));
  EXPECT_TRUE(is_probable_prime(BigInt(3), prg));
  EXPECT_FALSE(is_probable_prime(BigInt(4), prg));
  EXPECT_TRUE(is_probable_prime(BigInt(97), prg));
  EXPECT_FALSE(is_probable_prime(BigInt(91), prg));  // 7*13
  EXPECT_TRUE(is_probable_prime(BigInt(10007), prg));
}

TEST(Primes, KnownLargePrimeAndComposite) {
  crypto::Prg prg("primes2");
  // 2^127 - 1 is a Mersenne prime.
  const BigInt m127 = (BigInt(1) << 127) - BigInt(1);
  EXPECT_TRUE(is_probable_prime(m127, prg));
  // 2^128 + 1 is composite (= 59649589127497217 * ...).
  EXPECT_FALSE(is_probable_prime((BigInt(1) << 128) + BigInt(1), prg));
  // Carmichael number 561 must be rejected.
  EXPECT_FALSE(is_probable_prime(BigInt(561), prg));
}

TEST(Primes, RandomPrimeHasRequestedSize) {
  crypto::Prg prg("gen");
  for (std::size_t bits : {32u, 64u, 128u}) {
    const BigInt p = random_prime(prg, bits, 16);
    EXPECT_EQ(p.bit_length(), bits);
    EXPECT_TRUE(is_probable_prime(p, prg, 16));
  }
}

TEST(Primes, SafePrime) {
  crypto::Prg prg("sp");
  const BigInt p = random_safe_prime(prg, 48, 16);
  EXPECT_EQ(p.bit_length(), 48u);
  EXPECT_TRUE(is_probable_prime(p, prg, 16));
  EXPECT_TRUE(is_probable_prime((p - BigInt(1)) >> 1, prg, 16));
}

// Aliasing and limb-boundary cases for the branchless cmp_mag/sub_mag
// rewrite: self-subtraction, borrows that ripple across whole limbs, and
// compares decided only by the most-significant limb.

TEST(BigIntBoundary, SelfSubtractionAliases) {
  const BigInt wide = (BigInt(1) << 320) - BigInt(7);
  BigInt a = wide;
  a -= a;  // rhs aliases lhs
  EXPECT_TRUE(a.is_zero());
  EXPECT_EQ(a.bit_length(), 0u);
  EXPECT_FALSE(a.is_negative());  // normalized zero is non-negative
  BigInt b = wide;
  EXPECT_TRUE((b - b).is_zero());
  BigInt neg = -wide;
  neg -= neg;
  EXPECT_TRUE(neg.is_zero());
  EXPECT_FALSE(neg.is_negative());
}

TEST(BigIntBoundary, BorrowRipplesAcrossLimbs) {
  // (2^256) - 1 borrows through four full limbs of zeros.
  const BigInt r = (BigInt(1) << 256) - BigInt(1);
  EXPECT_EQ(r.bit_length(), 256u);
  EXPECT_EQ(r.to_hex(), std::string(64, 'f'));
  // (2^192 + 2^64) - (2^64 + 1): borrow starts below a zero middle limb.
  const BigInt s = ((BigInt(1) << 192) + (BigInt(1) << 64)) - ((BigInt(1) << 64) + BigInt(1));
  EXPECT_EQ(s, (BigInt(1) << 192) - BigInt(1));
  // Subtracting 1 from an exact limb boundary drops the top limb entirely.
  const BigInt t = (BigInt(1) << 128) - BigInt(1);
  EXPECT_EQ(t.bit_length(), 128u);
  EXPECT_EQ(t + BigInt(1), BigInt(1) << 128);
}

TEST(BigIntBoundary, CompareEqualPrefixOperands) {
  // Magnitudes agree on every limb except the most significant one, so the
  // compare is decided only at the top — a prefix-equality early exit would
  // get every lower limb "for free".
  const BigInt low = (BigInt(1) << 64) - BigInt(1);
  const BigInt a = (BigInt(5) << 192) + low;
  const BigInt b = (BigInt(6) << 192) + low;
  EXPECT_LT(a, b);
  EXPECT_GT(b, a);
  EXPECT_LT(-b, -a);
  // Differ only in the LEAST significant limb: decided at the bottom.
  const BigInt c = (BigInt(9) << 192) + BigInt(1);
  const BigInt d = (BigInt(9) << 192) + BigInt(2);
  EXPECT_LT(c, d);
  // Exactly equal multi-limb magnitudes.
  EXPECT_EQ(a, (BigInt(5) << 192) + low);
  EXPECT_FALSE(a < (BigInt(5) << 192) + low);
  EXPECT_FALSE(a > (BigInt(5) << 192) + low);
  // Shorter-vs-longer magnitude with identical shared limbs.
  EXPECT_LT(low, a);
  EXPECT_GT(a, low);
}

TEST(BigIntBoundary, ZeroLimbNormalization) {
  // Subtraction whose result fits in fewer limbs must shed the zero top
  // limbs: bit_length, serialization, and compares all depend on it.
  const BigInt a = (BigInt(1) << 128) + BigInt(5);
  const BigInt b = BigInt(1) << 128;
  const BigInt diff = a - b;
  EXPECT_EQ(diff, BigInt(5));
  EXPECT_EQ(diff.bit_length(), 3u);
  EXPECT_EQ(diff.to_bytes_be().size(), 1u);
  EXPECT_EQ(diff.low_u64(), 5u);
  // Result exactly one limb shorter, top limb all ones.
  const BigInt e = ((BigInt(1) << 192) + ((BigInt(1) << 128) - BigInt(1))) - (BigInt(1) << 192);
  EXPECT_EQ(e.bit_length(), 128u);
  // Zero produced by cancelling large magnitudes serializes as empty.
  EXPECT_TRUE((a - a).to_bytes_be().empty());
  EXPECT_EQ((a - a), BigInt(0));
}

}  // namespace
}  // namespace spfe::bignum
