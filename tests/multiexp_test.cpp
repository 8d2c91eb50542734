#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "bignum/bigint.h"
#include "bignum/modarith.h"
#include "bignum/multiexp.h"
#include "common/error.h"
#include "crypto/prg.h"

namespace spfe::bignum {
namespace {

// Odd modulus (Montgomery requires it) of roughly `bits` bits.
BigInt random_odd_modulus(crypto::Prg& prg, std::size_t bits) {
  BigInt m = BigInt::random_bits(prg, bits);
  if (!m.is_odd()) m = m + BigInt(1);
  if (m <= BigInt(3)) m = BigInt(5);
  return m;
}

// Reference: plain product of independent mod_pow calls.
BigInt naive_multi_pow(std::span<const BigInt> bases, std::span<const BigInt> exps,
                       const BigInt& m) {
  BigInt acc = BigInt(1).mod_floor(m);
  for (std::size_t i = 0; i < bases.size(); ++i) {
    acc = mod_mul(acc, mod_pow(bases[i], exps[i], m), m);
  }
  return acc;
}

// ---- MontgomeryContext::mont_sqr -------------------------------------------

TEST(MontSqr, MatchesMontMul) {
  crypto::Prg prg("mont-sqr");
  for (const std::size_t bits : {64u, 128u, 512u, 1024u, 2050u}) {
    const BigInt m = random_odd_modulus(prg, bits);
    const MontgomeryContext ctx(m);
    for (int it = 0; it < 8; ++it) {
      const BigInt a = BigInt::random_below(prg, m);
      const auto am = ctx.to_mont(a);
      EXPECT_EQ(ctx.mont_sqr(am), ctx.mont_mul(am, am)) << "bits=" << bits;
      EXPECT_EQ(ctx.from_mont(ctx.mont_sqr(am)), mod_mul(a, a, m)) << "bits=" << bits;
    }
  }
}

TEST(MontSqr, EdgeValues) {
  const BigInt m = BigInt::from_string("1000000000000000000000000000057");
  const MontgomeryContext ctx(m);
  for (const BigInt& a : {BigInt(0), BigInt(1), m - BigInt(1)}) {
    EXPECT_EQ(ctx.from_mont(ctx.mont_sqr(ctx.to_mont(a))), mod_mul(a, a, m));
  }
}

// ---- multi_pow --------------------------------------------------------------

TEST(MultiPow, MatchesNaiveProductRandomized) {
  crypto::Prg prg("multipow");
  for (int it = 0; it < 12; ++it) {
    const std::size_t bits = 64 + (it % 4) * 160;
    const BigInt m = random_odd_modulus(prg, bits);
    const std::size_t count = 1 + static_cast<std::size_t>(it) % 9;
    std::vector<BigInt> bases(count), exps(count);
    for (std::size_t i = 0; i < count; ++i) {
      bases[i] = BigInt::random_below(prg, m);
      exps[i] = BigInt::random_bits(prg, 1 + (i * 97) % bits);
    }
    EXPECT_EQ(multi_pow(MontgomeryContext(m), bases, exps), naive_multi_pow(bases, exps, m))
        << "it=" << it;
  }
}

TEST(MultiPow, ExponentEdgeCases) {
  crypto::Prg prg("multipow-edge");
  const BigInt m = random_odd_modulus(prg, 512);
  const MontgomeryContext ctx(m);
  std::vector<BigInt> bases(4);
  for (auto& b : bases) b = BigInt::random_below(prg, m);
  // Mix of 0, 1, and modulus-sized exponents (engine must not reduce them).
  const std::vector<BigInt> exps = {BigInt(0), BigInt(1), m + BigInt(7),
                                    BigInt::random_bits(prg, 512)};
  EXPECT_EQ(multi_pow(ctx, bases, exps), naive_multi_pow(bases, exps, m));
  // All-zero exponents: identity.
  const std::vector<BigInt> zeros(4, BigInt(0));
  EXPECT_EQ(multi_pow(ctx, bases, zeros), BigInt(1));
  // Empty input: identity.
  EXPECT_EQ(multi_pow(ctx, {}, {}), BigInt(1));
  // Single base degenerates to pow.
  EXPECT_EQ(multi_pow(ctx, std::span(bases.data(), 1), std::span(exps.data() + 3, 1)),
            ctx.pow(bases[0], exps[3]));
}

TEST(MultiPow, RejectsBadInput) {
  const BigInt m(1009);
  const MontgomeryContext ctx(m);
  const std::vector<BigInt> bases = {BigInt(2), BigInt(3)};
  const std::vector<BigInt> one = {BigInt(1)};
  EXPECT_THROW(multi_pow(ctx, bases, one), InvalidArgument);
  const std::vector<BigInt> neg = {BigInt(1), BigInt(-1)};
  EXPECT_THROW(multi_pow(ctx, bases, neg), InvalidArgument);
}

// ---- multi_pow_matrix -------------------------------------------------------

TEST(MultiPowMatrix, MatchesNaivePerColumn) {
  crypto::Prg prg("matrix");
  // Shapes chosen to land on both kernels: (few bases, few cols) -> Straus,
  // (many bases, small exps) -> Pippenger, (few bases, many cols) -> Straus
  // with its window tables shared across 40 columns.
  struct Shape {
    std::size_t count, columns, exp_bits;
  };
  for (const Shape s : {Shape{3, 2, 512}, Shape{48, 6, 12}, Shape{3, 40, 256}}) {
    const BigInt m = random_odd_modulus(prg, 384);
    const MontgomeryContext ctx(m);
    std::vector<BigInt> bases(s.count);
    for (auto& b : bases) b = BigInt::random_below(prg, m);
    std::vector<std::vector<BigInt>> exps(s.count, std::vector<BigInt>(s.columns));
    for (auto& row : exps) {
      for (auto& e : row) e = BigInt::random_bits(prg, 1 + prg.uniform(s.exp_bits));
    }
    // Sprinkle structural zeros, including one all-zero row.
    for (auto& e : exps[0]) e = BigInt(0);
    exps[s.count - 1][0] = BigInt(0);
    const std::vector<BigInt> out = multi_pow_matrix(ctx, bases, exps);
    ASSERT_EQ(out.size(), s.columns);
    for (std::size_t c = 0; c < s.columns; ++c) {
      std::vector<BigInt> col(s.count);
      for (std::size_t i = 0; i < s.count; ++i) col[i] = exps[i][c];
      EXPECT_EQ(out[c], naive_multi_pow(bases, col, m)) << "col=" << c;
    }
  }
}

TEST(MultiPowMatrix, RejectsRaggedRows) {
  const MontgomeryContext ctx(BigInt(1009));
  const std::vector<BigInt> bases = {BigInt(2), BigInt(3)};
  const std::vector<std::vector<BigInt>> ragged = {{BigInt(1), BigInt(2)}, {BigInt(1)}};
  EXPECT_THROW(multi_pow_matrix(ctx, bases, ragged), InvalidArgument);
}

// ---- Planner ----------------------------------------------------------------

TEST(MultiExpPlan, PicksExpectedKernelForCanonicalShapes) {
  using detail::MultiExpKind;
  struct Shape {
    std::size_t count, columns, exp_bits;
    MultiExpKind kind;
  };
  for (const Shape s : {
           // Two 512-bit cross terms (arith_protocol): shared chain, Straus.
           Shape{2, 1, 512, MultiExpKind::kStraus},
           // Depth-1 cPIR fold: thousands of bases, tiny exponents, one column.
           Shape{4096, 1, 16, MultiExpKind::kPippenger},
           // The shapes the query benchmark's workloads plan, as (bases,
           // columns, exponent bits): stats-1server's §4 package ...
           Shape{32, 31, 78, MultiExpKind::kStraus},
           Shape{31, 3, 496, MultiExpKind::kStraus},
           Shape{8, 1, 39, MultiExpKind::kStraus},
           // ... and table1-boolean's §3.3.2 v1 query.
           Shape{18, 18, 11, MultiExpKind::kStraus},
           Shape{18, 3, 496, MultiExpKind::kStraus},
           Shape{8, 1, 10, MultiExpKind::kStraus},
           // bench_spir's depth-1 E5 folds.
           Shape{557, 1, 15, MultiExpKind::kPippenger},
           Shape{4096, 1, 17, MultiExpKind::kPippenger},
       }) {
    EXPECT_EQ(detail::plan_multi_exp(s.count, s.columns, s.exp_bits).kind, s.kind)
        << "(" << s.count << ", " << s.columns << ", " << s.exp_bits << ")";
  }
  const detail::MultiExpPlan p = detail::plan_multi_exp(64, 64, 496);
  EXPECT_GE(p.window, 1u);
  EXPECT_LE(p.window, 10u);
}

}  // namespace
}  // namespace spfe::bignum
