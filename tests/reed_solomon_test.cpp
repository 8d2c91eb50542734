#include <gtest/gtest.h>

#include "common/error.h"
#include "field/fp64.h"
#include "field/polynomial.h"
#include "field/reed_solomon.h"
#include "net/fault.h"
#include "net/robust.h"
#include "net/sim.h"
#include "spfe/multiserver.h"

namespace spfe::field {
namespace {

TEST(LinearSolver, SolvesSquareSystem) {
  const Fp64 f(101);
  // 2x + 3y = 8, x + y = 3 -> x = 1? Solve over F101: x=1? 2+3y=8 -> check
  // x=1,y=2: 2+6=8 ok, 1+2=3 ok.
  const auto sol = solve_linear_system(
      f, {{2, 3}, {1, 1}}, std::vector<std::uint64_t>{8, 3});
  ASSERT_TRUE(sol.has_value());
  EXPECT_EQ((*sol)[0], 1u);
  EXPECT_EQ((*sol)[1], 2u);
}

TEST(LinearSolver, DetectsInconsistency) {
  const Fp64 f(101);
  const auto sol = solve_linear_system(
      f, {{1, 1}, {2, 2}}, std::vector<std::uint64_t>{3, 7});
  EXPECT_FALSE(sol.has_value());
}

TEST(LinearSolver, UnderdeterminedPicksASolution) {
  const Fp64 f(101);
  const auto sol = solve_linear_system(f, {{1, 1}}, std::vector<std::uint64_t>{5});
  ASSERT_TRUE(sol.has_value());
  EXPECT_EQ(f.add((*sol)[0], (*sol)[1]), 5u);
}

class BerlekampWelchTest : public ::testing::TestWithParam<std::tuple<std::size_t, std::size_t>> {
};

TEST_P(BerlekampWelchTest, CorrectsUpToEErrors) {
  const auto [d, e] = GetParam();
  const Fp64 f(Fp64::kMersenne61);
  crypto::Prg prg("bw");
  const auto poly = Polynomial::random(f, d, prg);
  const std::size_t k = d + 1 + 2 * e;
  std::vector<std::uint64_t> xs(k), ys(k);
  for (std::size_t i = 0; i < k; ++i) {
    xs[i] = i + 1;
    ys[i] = poly.eval(xs[i]);
  }
  // Corrupt e distinct positions.
  for (std::size_t c = 0; c < e; ++c) {
    ys[c * 2] = f.add(ys[c * 2], 1 + prg.uniform(1000));
  }
  const auto got = berlekamp_welch_decode(f, xs, ys, d, e);
  ASSERT_TRUE(got.has_value()) << "d=" << d << " e=" << e;
  EXPECT_EQ(got->eval(f, 0), poly.eval(0));
}

INSTANTIATE_TEST_SUITE_P(Sweep, BerlekampWelchTest,
                         ::testing::Values(std::tuple{1u, 1u}, std::tuple{3u, 1u},
                                           std::tuple{3u, 2u}, std::tuple{5u, 3u},
                                           std::tuple{10u, 2u}, std::tuple{4u, 0u}));

TEST(BerlekampWelch, NoErrorsFastPath) {
  const Fp64 f(1009);
  crypto::Prg prg("bw0");
  const auto poly = Polynomial::random(f, 3, prg);
  std::vector<std::uint64_t> xs, ys;
  for (std::uint64_t x = 1; x <= 6; ++x) {
    xs.push_back(x);
    ys.push_back(poly.eval(x));
  }
  EXPECT_EQ(berlekamp_welch_decode(f, xs, ys, 3, 1)->eval(f, 0), poly.eval(0));
}

TEST(BerlekampWelch, FailsBeyondBudget) {
  const Fp64 f(Fp64::kMersenne61);
  crypto::Prg prg("bw-fail");
  const std::size_t d = 2, e = 1;
  const auto poly = Polynomial::random(f, d, prg);
  const std::size_t k = d + 1 + 2 * e;
  std::vector<std::uint64_t> xs(k), ys(k);
  for (std::size_t i = 0; i < k; ++i) {
    xs[i] = i + 1;
    ys[i] = poly.eval(xs[i]);
  }
  // Corrupt e+1 positions: decoding must not silently return a wrong value
  // (either nullopt or — impossible here — the right value).
  ys[0] = f.add(ys[0], 17);
  ys[1] = f.add(ys[1], 23);
  const auto got = berlekamp_welch_decode(f, xs, ys, d, e);
  if (got.has_value()) {
    EXPECT_NE(got->eval(f, 0), poly.eval(0)) << "would be a silent miracle";
  }
  SUCCEED();
}

TEST(BerlekampWelch, InsufficientPointsThrow) {
  const Fp64 f(1009);
  std::vector<std::uint64_t> xs = {1, 2, 3}, ys = {1, 2, 3};
  EXPECT_THROW(berlekamp_welch_decode(f, xs, ys, 2, 1), InvalidArgument);
}

// --- edge cases around the exact correction bound ---------------------------

TEST(LinearSolver, InconsistentOverdeterminedSystem) {
  const Fp64 f(101);
  // Three equations in two unknowns with no common solution: the eliminated
  // zero row has a nonzero rhs, exercising the std::nullopt path.
  const auto sol = solve_linear_system(f, {{1, 0}, {0, 1}, {1, 1}},
                                       std::vector<std::uint64_t>{1, 2, 50});
  EXPECT_FALSE(sol.has_value());
}

TEST(BerlekampWelch, ZeroBudgetDetectsInconsistentPoints) {
  // max_errors = 0 must not blindly interpolate: a corrupted point set has
  // to come back nullopt, not a garbage value.
  const Fp64 f(Fp64::kMersenne61);
  crypto::Prg prg("bw-zero");
  const std::size_t d = 3;
  const auto poly = Polynomial::random(f, d, prg);
  std::vector<std::uint64_t> xs, ys;
  for (std::uint64_t x = 1; x <= d + 2; ++x) {
    xs.push_back(x);
    ys.push_back(poly.eval(x));
  }
  EXPECT_EQ(berlekamp_welch_decode(f, xs, ys, d, 0)->eval(f, 0), poly.eval(0));
  ys[2] = f.add(ys[2], 99);
  EXPECT_FALSE(berlekamp_welch_decode(f, xs, ys, d, 0).has_value());
}

TEST(BerlekampWelch, ExactBoundOneBeyondFails) {
  // k = d + 1 + 2e points: e corruptions decode, e+1 must not decode to a
  // wrong value (nullopt, or — vanishingly unlikely — the honest value).
  const Fp64 f(Fp64::kMersenne61);
  crypto::Prg prg("bw-bound");
  const std::size_t d = 4, e = 2;
  const auto poly = Polynomial::random(f, d, prg);
  const std::size_t k = d + 1 + 2 * e;
  std::vector<std::uint64_t> xs(k), ys(k);
  for (std::size_t i = 0; i < k; ++i) {
    xs[i] = i + 1;
    ys[i] = poly.eval(xs[i]);
  }
  for (std::size_t c = 0; c < e; ++c) ys[c] = f.add(ys[c], 7 + c);
  EXPECT_EQ(berlekamp_welch_decode(f, xs, ys, d, e)->eval(f, 0), poly.eval(0));
  ys[e] = f.add(ys[e], 31);  // one corruption too many
  const auto got = berlekamp_welch_decode(f, xs, ys, d, e);
  if (got.has_value()) {
    EXPECT_EQ(got->eval(f, 0), poly.eval(0));
  }
}

TEST(BerlekampWelchDecode, ReportsErrorPositions) {
  const Fp64 f(Fp64::kMersenne61);
  crypto::Prg prg("bw-positions");
  const std::size_t d = 3, e = 2;
  const auto poly = Polynomial::random(f, d, prg);
  const std::size_t k = d + 1 + 2 * e;
  std::vector<std::uint64_t> xs(k), ys(k);
  for (std::size_t i = 0; i < k; ++i) {
    xs[i] = i + 1;
    ys[i] = poly.eval(xs[i]);
  }
  ys[1] = f.add(ys[1], 5);
  ys[6] = f.add(ys[6], 9);
  const auto dec = berlekamp_welch_decode(f, xs, ys, d, e);
  ASSERT_TRUE(dec.has_value());
  EXPECT_EQ(dec->num_errors(), 2u);
  EXPECT_FALSE(dec->agrees[1]);
  EXPECT_FALSE(dec->agrees[6]);
  for (const std::size_t i : {0u, 2u, 3u, 4u, 5u, 7u}) EXPECT_TRUE(dec->agrees[i]) << i;
  EXPECT_EQ(dec->eval(f, f.zero()), poly.eval(0));
  EXPECT_EQ(dec->eval(f, xs[1]), poly.eval(xs[1]));  // corrected point
}

TEST(DecodeWithErasures, ErasureAndErrorMixes) {
  // Provision k = d + 1 + 2e + c, then erase c points and corrupt e of the
  // survivors: every mix within the unit budget must decode exactly.
  const Fp64 f(Fp64::kMersenne61);
  crypto::Prg prg("erasure-mix");
  const std::size_t d = 4;
  for (std::size_t e = 0; e <= 2; ++e) {
    for (std::size_t c = 0; c <= 3; ++c) {
      const std::size_t k = d + 1 + 2 * e + c;
      const auto poly = Polynomial::random(f, d, prg);
      // Erase the first c points (survivors are the rest), corrupt e.
      std::vector<std::uint64_t> xs, ys;
      for (std::size_t i = c; i < k; ++i) {
        xs.push_back(i + 1);
        ys.push_back(poly.eval(i + 1));
      }
      for (std::size_t j = 0; j < e; ++j) ys[2 * j] = f.add(ys[2 * j], 11 + j);
      const auto dec = decode_with_erasures(f, xs, ys, d);
      ASSERT_TRUE(dec.has_value()) << "e=" << e << " c=" << c;
      EXPECT_EQ(dec->eval(f, f.zero()), poly.eval(0)) << "e=" << e << " c=" << c;
      EXPECT_EQ(dec->num_errors(), e) << "e=" << e << " c=" << c;
    }
  }
}

TEST(DecodeWithErasures, ExactMinimumSurvivors) {
  // s = d + 1 survivors, zero error slack: decodes iff all are honest.
  const Fp64 f(Fp64::kMersenne61);
  crypto::Prg prg("erasure-min");
  const std::size_t d = 5;
  const auto poly = Polynomial::random(f, d, prg);
  std::vector<std::uint64_t> xs, ys;
  for (std::size_t i = 0; i < d + 1; ++i) {
    xs.push_back(i + 3);
    ys.push_back(poly.eval(i + 3));
  }
  const auto dec = decode_with_erasures(f, xs, ys, d);
  ASSERT_TRUE(dec.has_value());
  EXPECT_EQ(dec->eval(f, f.zero()), poly.eval(0));
  // One survivor fewer: information-theoretically impossible.
  xs.pop_back();
  ys.pop_back();
  EXPECT_FALSE(decode_with_erasures(f, xs, ys, d).has_value());
}

TEST(DecodeWithErasures, BeyondBudgetReturnsNullopt) {
  // s = d + 2 survivors (error capacity 0) with one silent lie: the single
  // point of slack exposes the inconsistency.
  const Fp64 f(Fp64::kMersenne61);
  crypto::Prg prg("erasure-beyond");
  const std::size_t d = 3;
  const auto poly = Polynomial::random(f, d, prg);
  std::vector<std::uint64_t> xs, ys;
  for (std::size_t i = 0; i < d + 2; ++i) {
    xs.push_back(i + 1);
    ys.push_back(poly.eval(i + 1));
  }
  ys[0] = f.add(ys[0], 1);
  EXPECT_FALSE(decode_with_erasures(f, xs, ys, d).has_value());
}

// --- consistent-lie tightness boundaries ------------------------------------
//
// The adversary engine's ConsistentLieStrategy (net/adversary.h) corrupts
// points with one shared offset delta, so every lie sits on the *same*
// degree-d polynomial P + delta — the attack class no per-point check can
// see. These tests pin the exact decode boundaries `run_robust_star` relies
// on: e such lies at d+1+2e are corrected; e+1 of them fail closed on the
// first e+1 abscissae but can decode to another codeword elsewhere (the
// code's minimum distance is 2e+1, so the guarantee covers <= e liars); and
// at the bare d+1 interpolation quorum a single lie decodes silently wrong
// — the reason RobustConfig::byzantine_budget raises the early-decode
// quorum (tests/adversary_test.cpp witnesses it end-to-end).

TEST(ConsistentLieTightness, ExactlyEConsistentLiesAreCorrected) {
  const Fp64 f(Fp64::kMersenne61);
  crypto::Prg prg("lie-exact");
  const std::uint64_t delta = 123456789;
  for (std::size_t d = 2; d <= 6; ++d) {
    for (std::size_t e = 1; e <= 2; ++e) {
      const std::size_t k = d + 1 + 2 * e;
      const auto poly = Polynomial::random(f, d, prg);
      std::vector<std::uint64_t> xs(k), ys(k);
      for (std::size_t i = 0; i < k; ++i) {
        xs[i] = i + 1;
        ys[i] = poly.eval(xs[i]);
      }
      for (std::size_t j = 0; j < e; ++j) ys[j] = f.add(ys[j], delta);
      const auto dec = berlekamp_welch_decode(f, xs, ys, d, e);
      ASSERT_TRUE(dec.has_value()) << "d=" << d << " e=" << e;
      EXPECT_EQ(dec->eval(f, f.zero()), poly.eval(0)) << "d=" << d << " e=" << e;
      EXPECT_EQ(dec->num_errors(), e) << "d=" << d << " e=" << e;
      for (std::size_t j = 0; j < e; ++j) EXPECT_FALSE(dec->agrees[j]) << "d=" << d;
    }
  }
}

TEST(ConsistentLieTightness, EPlusOneConsistentLiesFailClosedNeverWrong) {
  // At k = d+1+2e, e+1 colluders on one delta at the first e+1 abscissae
  // put the points at distance e+1 from P and distance d+e from P+delta,
  // both beyond the e budget, and for these positions no other degree-d
  // polynomial lies within e of them: the decode returns nullopt. Other
  // positions can decode wrong (SomeEPlusOneCoalitionsDecodeToAnotherCodeword).
  const Fp64 f(Fp64::kMersenne61);
  crypto::Prg prg("lie-overbudget");
  const std::uint64_t delta = 987654321;
  for (std::size_t d = 2; d <= 6; ++d) {
    for (std::size_t e = 1; e <= 2; ++e) {
      const std::size_t k = d + 1 + 2 * e;
      const auto poly = Polynomial::random(f, d, prg);
      std::vector<std::uint64_t> xs(k), ys(k);
      for (std::size_t i = 0; i < k; ++i) {
        xs[i] = i + 1;
        ys[i] = poly.eval(xs[i]);
      }
      for (std::size_t j = 0; j < e + 1; ++j) ys[j] = f.add(ys[j], delta);
      EXPECT_FALSE(berlekamp_welch_decode(f, xs, ys, d, e).has_value())
          << "d=" << d << " e=" << e;
      EXPECT_FALSE(decode_with_erasures(f, xs, ys, d).has_value())
          << "d=" << d << " e=" << e;
    }
  }
}

TEST(ConsistentLieTightness, SomeEPlusOneCoalitionsDecodeToAnotherCodeword) {
  // The guarantee stops at e liars. At k = 9 (d = 6, e = 1) the minimum
  // distance is 3, so two liars on one delta can sit within distance 1 of a
  // third codeword Q, which Berlekamp–Welch returns as one corrected error.
  // Which of the 36 liar pairs do depends only on the abscissae: 22 fail
  // closed and 14 decode wrong for every P and delta. Liars at {5, 6} give
  // Q = P + delta * prod_{h in {2,3,4,7,8,9}} (x - h) / (-144), which misses
  // the points only at abscissa 1, and Q(0) = P(0) - 84 * delta.
  const Fp64 f(Fp64::kMersenne61);
  crypto::Prg prg("lie-other-codeword");
  const std::size_t d = 6, k = 9;
  std::vector<std::uint64_t> xs(k);
  for (std::size_t i = 0; i < k; ++i) xs[i] = i + 1;
  for (int draw = 0; draw < 20; ++draw) {
    const auto poly = Polynomial::random(f, d, prg);
    const std::uint64_t delta = 1 + prg.uniform(f.modulus() - 1);
    std::size_t closed = 0, wrong = 0;
    for (std::size_t a = 0; a < k; ++a) {
      for (std::size_t b = a + 1; b < k; ++b) {
        std::vector<std::uint64_t> ys(k);
        for (std::size_t i = 0; i < k; ++i) ys[i] = poly.eval(xs[i]);
        ys[a] = f.add(ys[a], delta);
        ys[b] = f.add(ys[b], delta);
        const auto dec = decode_with_erasures(f, xs, ys, d);
        if (xs[a] == 5 && xs[b] == 6) {
          ASSERT_TRUE(dec.has_value()) << "draw " << draw;
          EXPECT_FALSE(dec->agrees[0]) << "blames abscissa 1";
          for (std::size_t i = 1; i < k; ++i) EXPECT_TRUE(dec->agrees[i]) << "abscissa " << xs[i];
          EXPECT_EQ(dec->eval(f, f.zero()), f.sub(poly.eval(0), f.mul(84, delta)));
        }
        if (!dec.has_value()) {
          ++closed;
          continue;
        }
        ++wrong;
        EXPECT_NE(dec->eval(f, f.zero()), poly.eval(0)) << "liars " << xs[a] << "," << xs[b];
        EXPECT_EQ(dec->num_errors(), 1u) << "liars " << xs[a] << "," << xs[b];
      }
    }
    EXPECT_EQ(closed, 22u) << "draw " << draw;
    EXPECT_EQ(wrong, 14u) << "draw " << draw;
  }
}

TEST(ConsistentLieTightness, BareInterpolationQuorumDecodesSilentlyWrong) {
  // s = d+1 points with zero error capacity: interpolation fits ANY d+1
  // points, so one consistent lie yields a "successful" decode of the wrong
  // polynomial with a clean agrees vector — the silent failure mode the
  // byzantine-budget quorum guard exists to forbid. One more point (s =
  // d+2) is already enough slack to expose the lie wherever it sits.
  const Fp64 f(Fp64::kMersenne61);
  crypto::Prg prg("lie-bare-quorum");
  const std::size_t d = 4;
  const std::uint64_t delta = 5555;
  const auto poly = Polynomial::random(f, d, prg);
  std::vector<std::uint64_t> xs(d + 1), ys(d + 1);
  for (std::size_t i = 0; i <= d; ++i) {
    xs[i] = i + 1;
    ys[i] = poly.eval(xs[i]);
  }
  ys[2] = f.add(ys[2], delta);

  const auto dec = decode_with_erasures(f, xs, ys, d);
  ASSERT_TRUE(dec.has_value()) << "bare-quorum interpolation cannot reject anything";
  EXPECT_EQ(dec->num_errors(), 0u) << "the lie is invisible to the agrees vector";
  EXPECT_NE(dec->eval(f, f.zero()), poly.eval(0)) << "and the decoded value is wrong";

  // d+2 points, same single lie, at every lie position: detected-or-error.
  for (std::size_t liar = 0; liar < d + 2; ++liar) {
    std::vector<std::uint64_t> xs2(d + 2), ys2(d + 2);
    for (std::size_t i = 0; i < d + 2; ++i) {
      xs2[i] = i + 1;
      ys2[i] = poly.eval(xs2[i]);
    }
    ys2[liar] = f.add(ys2[liar], delta);
    EXPECT_FALSE(decode_with_erasures(f, xs2, ys2, d).has_value()) << "liar=" << liar;
  }
}

TEST(ConsistentLieTightness, ErasurePlusLieMixAtTheExactUnitBudgetBoundary) {
  // Provision k = d+1+2e+c; erase c points and plant e consistent lies:
  // s = d+1+2e survivors decode exactly. One additional erasure drops the
  // error capacity to e-1 and the same lies must fail closed.
  const Fp64 f(Fp64::kMersenne61);
  crypto::Prg prg("lie-erasure-boundary");
  const std::size_t d = 3, e = 2, c = 2;
  const std::uint64_t delta = 424242;
  const std::size_t k = d + 1 + 2 * e + c;
  const auto poly = Polynomial::random(f, d, prg);

  std::vector<std::uint64_t> xs, ys;
  for (std::size_t i = c; i < k; ++i) {  // the first c points are erased
    xs.push_back(i + 1);
    ys.push_back(poly.eval(i + 1));
  }
  for (std::size_t j = 0; j < e; ++j) ys[2 * j] = f.add(ys[2 * j], delta);

  const auto dec = decode_with_erasures(f, xs, ys, d);
  ASSERT_TRUE(dec.has_value());
  EXPECT_EQ(dec->eval(f, f.zero()), poly.eval(0));
  EXPECT_EQ(dec->num_errors(), e);

  // c+1 erasures: s = d+2e, capacity e-1 < e lies -> fail closed.
  xs.erase(xs.begin() + 1);  // drop an honest survivor, keeping both lies
  ys.erase(ys.begin() + 1);
  EXPECT_FALSE(decode_with_erasures(f, xs, ys, d).has_value());
}

// --- end-to-end: §3.1 with malicious servers --------------------------------
//
// Each lie is an in-field byte flip of one server's answer on the wire; the
// client runs a single robust attempt (no retry can route around the lies)
// with the lie budget e it was provisioned for.

net::FaultPlan lying_servers(const std::vector<std::size_t>& liars) {
  net::FaultPlan plan;
  for (const std::size_t s : liars) {
    plan.add(net::Direction::kServerToClient, s, 0,
             net::Fault{net::FaultKind::kCorruptByte, 1, 0x40, 0});
  }
  return plan;
}

net::RobustConfig single_attempt(std::size_t byzantine_budget) {
  net::RobustConfig cfg;
  cfg.max_attempts = 1;
  cfg.byzantine_budget = byzantine_budget;
  return cfg;
}

TEST(MultiServerFaultTolerance, SumSurvivesCorruptAnswers) {
  const Fp64 f(Fp64::kMersenne61);
  constexpr std::size_t kN = 64, kM = 3, kT = 1, kErrors = 2;
  // Provision 2*kErrors extra servers beyond the interpolation minimum.
  const std::size_t k =
      protocols::MultiServerSumSpfe::min_servers(kN, kT) + 2 * kErrors;
  const protocols::MultiServerSumSpfe proto(f, kN, kM, k, kT);
  std::vector<std::uint64_t> db(kN);
  for (std::size_t i = 0; i < kN; ++i) db[i] = 100 + i;
  const std::vector<std::size_t> indices = {3, 30, 60};
  std::uint64_t expect = 0;
  for (const std::size_t i : indices) expect += db[i];

  // Two servers lie. Plain interpolation is now wrong...
  {
    net::SimStarNetwork net(k, net::SimConfig{}, lying_servers({1, 4}));
    crypto::Prg prg("ft");
    EXPECT_NE(proto.run(net, db, indices, std::nullopt, prg), expect);
  }
  // ...but the robust client corrects both lies.
  net::SimStarNetwork net(k, net::SimConfig{}, lying_servers({1, 4}));
  crypto::Prg prg("ft");
  const net::RobustConfig cfg = single_attempt(kErrors);
  const net::RobustResult res = proto.run_robust(net, db, indices, std::nullopt, prg, cfg);
  EXPECT_EQ(res.value, expect);
  EXPECT_EQ(res.report.errors_corrected, kErrors);
}

TEST(MultiServerFaultTolerance, FormulaSurvivesOneCorruptAnswer) {
  const Fp64 f(Fp64::kMersenne61);
  const auto formula = circuits::Formula::parse("x0 & x1");
  constexpr std::size_t kN = 16, kT = 1, kErrors = 1;
  const std::size_t k =
      protocols::MultiServerFormulaSpfe::min_servers(formula, kN, kT) + 2 * kErrors;
  const protocols::MultiServerFormulaSpfe proto(f, formula, kN, k, kT);
  std::vector<std::uint64_t> db(kN, 1);
  net::SimStarNetwork net(k, net::SimConfig{}, lying_servers({0}));
  crypto::Prg prg("ft2");
  const net::RobustConfig cfg = single_attempt(kErrors);
  EXPECT_EQ(proto.run_robust(net, db, {2, 9}, std::nullopt, prg, cfg).value, 1u);
}

TEST(MultiServerFaultTolerance, TooManyErrorsThrow) {
  const Fp64 f(Fp64::kMersenne61);
  constexpr std::size_t kN = 16, kM = 2, kT = 1;
  const std::size_t k = protocols::MultiServerSumSpfe::min_servers(kN, kT) + 2;
  const protocols::MultiServerSumSpfe proto(f, kN, kM, k, kT);
  std::vector<std::uint64_t> db(kN, 5);
  // Corrupt 3 answers with an error budget of 1: must throw, not lie.
  net::SimStarNetwork net(k, net::SimConfig{}, lying_servers({0, 1, 2}));
  crypto::Prg prg("ft3");
  const net::RobustConfig cfg = single_attempt(1);
  EXPECT_THROW(proto.run_robust(net, db, {1, 2}, std::nullopt, prg, cfg),
               net::RobustProtocolError);
}

}  // namespace
}  // namespace spfe::field
