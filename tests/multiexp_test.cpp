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

using Limbs = std::vector<std::uint64_t>;

// Moduli whose top limb is all ones, where a reduction's carries run
// furthest: 2^(64k) - 1 for every k, and 2^(64k) - 2^64 + 1 for k >= 2.
std::vector<BigInt> carry_boundary_moduli() {
  std::vector<BigInt> out;
  for (const std::size_t k : {1u, 2u, 4u, 8u, 16u, 33u, 64u}) {
    const BigInt r = BigInt(1) << (64 * k);
    out.push_back(r - BigInt(1));
    if (k >= 2) out.push_back(r - (BigInt(1) << 64) + BigInt(1));
  }
  return out;
}

// x as exactly k limbs.
Limbs limbs_of(const BigInt& x, std::size_t k) {
  Limbs v = x.limbs();
  v.resize(k, 0);
  return v;
}

// Operands {0, 1, n - 1, R mod n, random} of a k-limb modulus n.
std::vector<BigInt> edge_operands(crypto::Prg& prg, const BigInt& n) {
  const BigInt r_mod_n = (BigInt(1) << (64 * n.limbs().size())).mod_floor(n);
  return {BigInt(0), BigInt(1), n - BigInt(1), r_mod_n, BigInt::random_below(prg, n)};
}

TEST(MontSqr, MatchesMontMul) {
  crypto::Prg prg("mont-sqr");
  std::vector<BigInt> moduli;
  for (const std::size_t bits : {64u, 128u, 512u, 1024u, 2050u}) {
    moduli.push_back(random_odd_modulus(prg, bits));
  }
  for (const BigInt& m : carry_boundary_moduli()) moduli.push_back(m);
  for (const BigInt& m : moduli) {
    const MontgomeryContext ctx(m);
    const std::size_t k = ctx.limbs();
    Limbs sq(k), prod(k), scratch(ctx.scratch_limbs());
    std::vector<BigInt> operands = edge_operands(prg, m);
    for (int it = 0; it < 8; ++it) operands.push_back(BigInt::random_below(prg, m));
    for (const BigInt& a : operands) {
      const Limbs am = ctx.to_mont(a);
      ctx.mont_sqr(sq, am, scratch);
      ctx.mont_mul(prod, am, am, scratch);
      EXPECT_EQ(sq, prod) << "bits=" << m.bit_length();
      EXPECT_EQ(ctx.from_mont(sq, scratch), mod_mul(a, a, m)) << "bits=" << m.bit_length();
    }
  }
}

// The kernels on raw limbs: REDC(a * b) = a * b * R^-1 mod n for every pair
// of edge operands, written to a separate buffer, over one input and over
// both inputs.
TEST(MontSqr, EdgeValues) {
  crypto::Prg prg("mont-sqr-edge");
  std::vector<BigInt> moduli = {BigInt::from_string("1000000000000000000000000000057")};
  for (const BigInt& m : carry_boundary_moduli()) moduli.push_back(m);
  for (const BigInt& n : moduli) {
    const MontgomeryContext ctx(n);
    const std::size_t k = ctx.limbs();
    const BigInt r_inv = mod_inverse(BigInt(1) << (64 * k), n);
    const auto redc = [&](const BigInt& a, const BigInt& b) {
      return mod_mul(mod_mul(a, b, n), r_inv, n);
    };
    const auto value = [](const Limbs& v) { return BigInt::from_limbs(v, false); };
    Limbs out(k), scratch(ctx.scratch_limbs());
    const std::vector<BigInt> operands = edge_operands(prg, n);
    for (const BigInt& a : operands) {
      const Limbs al = limbs_of(a, k);
      EXPECT_EQ(ctx.from_mont(ctx.to_mont(a), scratch), a) << "n=" << n.to_hex();
      ctx.mont_sqr(out, al, scratch);
      EXPECT_EQ(value(out), redc(a, a)) << "sqr n=" << n.to_hex() << " a=" << a.to_hex();
      Limbs both = al;
      ctx.mont_sqr(both, both, scratch);
      EXPECT_EQ(value(both), redc(a, a)) << "sqr aliased n=" << n.to_hex() << " a=" << a.to_hex();
      both = al;
      ctx.mont_mul(both, both, both, scratch);
      EXPECT_EQ(value(both), redc(a, a)) << "mul aliased twice n=" << n.to_hex();
      for (const BigInt& b : operands) {
        const Limbs bl = limbs_of(b, k);
        ctx.mont_mul(out, al, bl, scratch);
        EXPECT_EQ(value(out), redc(a, b)) << "mul n=" << n.to_hex() << " a=" << a.to_hex()
                                          << " b=" << b.to_hex();
        Limbs first = al;
        ctx.mont_mul(first, first, bl, scratch);
        EXPECT_EQ(value(first), redc(a, b)) << "mul aliased to a, n=" << n.to_hex();
        Limbs second = bl;
        ctx.mont_mul(second, al, second, scratch);
        EXPECT_EQ(value(second), redc(a, b)) << "mul aliased to b, n=" << n.to_hex();
      }
    }
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
