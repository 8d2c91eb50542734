#include <gtest/gtest.h>

#include "common/error.h"
#include "field/fp64.h"
#include "field/polynomial.h"

namespace spfe::field {
namespace {

TEST(Fp64, ConstructionValidation) {
  EXPECT_NO_THROW(Fp64(2));
  EXPECT_NO_THROW(Fp64(Fp64::kMersenne61));
  EXPECT_THROW(Fp64(1), InvalidArgument);
  EXPECT_THROW(Fp64(15), InvalidArgument);  // composite
  EXPECT_THROW(Fp64(std::uint64_t(1) << 63), InvalidArgument);
}

TEST(Fp64, BasicArithmetic) {
  const Fp64 f(17);
  EXPECT_EQ(f.add(9, 12), 4u);
  EXPECT_EQ(f.sub(3, 9), 11u);
  EXPECT_EQ(f.mul(5, 7), 1u);
  EXPECT_EQ(f.neg(5), 12u);
  EXPECT_EQ(f.neg(0), 0u);
  EXPECT_EQ(f.from_u64(100), 15u);
}

TEST(Fp64, InverseAndPow) {
  const Fp64 f(101);
  for (std::uint64_t a = 1; a < 101; ++a) {
    EXPECT_EQ(f.mul(a, f.inv(a)), 1u);
  }
  EXPECT_THROW(f.inv(0), CryptoError);
  EXPECT_EQ(f.pow(2, 100), 1u);  // Fermat
}

TEST(Fp64, Mersenne61LargeProducts) {
  const Fp64 f(Fp64::kMersenne61);
  const std::uint64_t a = Fp64::kMersenne61 - 1;
  EXPECT_EQ(f.mul(a, a), 1u);  // (-1)^2 = 1
  crypto::Prg prg("fp64");
  for (int i = 0; i < 100; ++i) {
    const std::uint64_t x = f.random(prg);
    const std::uint64_t y = f.random(prg);
    EXPECT_EQ(f.mul(x, y), f.mul(y, x));
    EXPECT_EQ(f.add(x, f.neg(x)), 0u);
  }
}

TEST(Fp64, WideReduceMatchesModulo) {
  // reduce_wide takes v < p * 2^64: up to the largest prime below 2^63,
  // where v = (p - 1) * 2^64 + 2^64 - 1 has the largest quotient, it still
  // fits the hardware division.
  crypto::Prg prg("fp64-wide");
  for (const std::uint64_t p : {std::uint64_t(2), std::uint64_t(1009),
                                smallest_prime_above(8ull * 200001 * 200001), Fp64::kMersenne61,
                                (std::uint64_t(1) << 63) - 25}) {
    const Fp64 f(p);
    std::vector<std::uint64_t> highs = {0, 1 % p, p - 1};
    std::vector<std::uint64_t> lows = {0, 1, p - 1, p, ~std::uint64_t(0)};
    for (int i = 0; i < 200; ++i) {
      highs.push_back(f.random(prg));
      lows.push_back(prg.u64());
    }
    for (const std::uint64_t hi : highs) {
      for (const std::uint64_t lo : lows) {
        const unsigned __int128 v = static_cast<unsigned __int128>(hi) << 64 | lo;
        ASSERT_EQ(f.reduce_wide(v), static_cast<std::uint64_t>(v % p))
            << "p=" << p << " hi=" << hi << " lo=" << lo;
      }
    }
  }
}

TEST(Fp64, SmallestPrimeAbove) {
  EXPECT_EQ(smallest_prime_above(0), 2u);
  EXPECT_EQ(smallest_prime_above(2), 3u);
  EXPECT_EQ(smallest_prime_above(10), 11u);
  EXPECT_EQ(smallest_prime_above(1000000), 1000003u);
  const std::uint64_t p = smallest_prime_above(1u << 20);
  EXPECT_NO_THROW(Fp64{p});
}

TEST(Polynomial, EvalHorner) {
  const Fp64 f(97);
  // p(x) = 3 + 2x + x^2
  const Polynomial p(f, {3, 2, 1});
  EXPECT_EQ(p.eval(0), 3u);
  EXPECT_EQ(p.eval(1), 6u);
  EXPECT_EQ(p.eval(5), (3 + 10 + 25) % 97u);
}

TEST(Polynomial, RandomWithConstant) {
  const Fp64 f(1009);
  crypto::Prg prg("poly");
  const auto p = Polynomial::random_with_constant(f, 5, 42, prg);
  EXPECT_EQ(p.eval(0), 42u);
}

TEST(Polynomial, InterpolateRecoversPolynomial) {
  const Fp64 f(1009);
  crypto::Prg prg("interp");
  for (std::size_t deg = 0; deg <= 6; ++deg) {
    const auto p = Polynomial::random(f, deg, prg);
    std::vector<std::uint64_t> xs, ys;
    for (std::uint64_t x = 1; x <= deg + 1; ++x) {
      xs.push_back(x);
      ys.push_back(p.eval(x));
    }
    // Recover at several points, including 0.
    EXPECT_EQ(interpolate_at(f, xs, ys, std::uint64_t(0)), p.eval(0)) << "deg=" << deg;
    EXPECT_EQ(interpolate_at(f, xs, ys, std::uint64_t(500)), p.eval(500));
  }
}

TEST(Polynomial, InterpolateRejectsDuplicates) {
  const Fp64 f(97);
  EXPECT_THROW(
      interpolate_at(f, std::vector<std::uint64_t>{1, 1}, std::vector<std::uint64_t>{2, 3},
                     std::uint64_t(0)),
      InvalidArgument);
  EXPECT_THROW(interpolate_at(f, std::vector<std::uint64_t>{}, std::vector<std::uint64_t>{},
                              std::uint64_t(0)),
               InvalidArgument);
}

TEST(Polynomial, MWiseIndependencePointEvaluations) {
  // A random degree-(m-1) polynomial evaluated at m fixed points should be
  // (close to) uniform on each coordinate: sanity-check the masking family
  // used by the §3.3.2 input-selection protocol.
  const Fp64 f(17);
  crypto::Prg prg("mwise");
  constexpr std::size_t kM = 3;
  std::vector<int> counts(17, 0);
  for (int trial = 0; trial < 1700; ++trial) {
    const auto p = Polynomial::random(f, kM - 1, prg);
    counts[p.eval(5)]++;
  }
  for (int c : counts) {
    EXPECT_GT(c, 50);
    EXPECT_LT(c, 160);
  }
}

}  // namespace
}  // namespace spfe::field
