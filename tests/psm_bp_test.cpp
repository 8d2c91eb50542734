#include <gtest/gtest.h>

#include <cmath>
#include <map>

#include "circuits/branching_program.h"
#include "common/error.h"
#include "field/gf2.h"
#include "psm/psm_bp.h"
#include "psm_message.h"

namespace spfe::psm {
namespace {

using circuits::BpGuard;
using circuits::BranchingProgram;
using circuits::Formula;
using field::Gf2Matrix;

// ---- Gf2Matrix ----------------------------------------------------------------

TEST(Gf2Matrix, MultiplyIdentity) {
  crypto::Prg prg("gf2-id");
  const Gf2Matrix m = Gf2Matrix::random(8, prg);
  EXPECT_EQ(m * Gf2Matrix::identity(8), m);
  EXPECT_EQ(Gf2Matrix::identity(8) * m, m);
}

TEST(Gf2Matrix, MultiplyKnownValue) {
  // [[1,1],[0,1]] * [[1,0],[1,1]] = [[0,1],[1,1]] over GF(2).
  Gf2Matrix a(2), b(2);
  a.set(0, 0, true);
  a.set(0, 1, true);
  a.set(1, 1, true);
  b.set(0, 0, true);
  b.set(1, 0, true);
  b.set(1, 1, true);
  const Gf2Matrix c = a * b;
  EXPECT_FALSE(c.get(0, 0));
  EXPECT_TRUE(c.get(0, 1));
  EXPECT_TRUE(c.get(1, 0));
  EXPECT_TRUE(c.get(1, 1));
}

TEST(Gf2Matrix, DeterminantBasics) {
  EXPECT_TRUE(Gf2Matrix::identity(5).determinant());
  Gf2Matrix singular(3);  // zero matrix
  EXPECT_FALSE(singular.determinant());
  // Unit upper-triangular always has det 1.
  crypto::Prg prg("gf2-det");
  for (int i = 0; i < 20; ++i) {
    EXPECT_TRUE(Gf2Matrix::random_unit_upper(10, prg).determinant());
  }
}

TEST(Gf2Matrix, DeterminantMultiplicative) {
  crypto::Prg prg("gf2-mult");
  for (int i = 0; i < 50; ++i) {
    const Gf2Matrix a = Gf2Matrix::random(6, prg);
    const Gf2Matrix b = Gf2Matrix::random(6, prg);
    EXPECT_EQ((a * b).determinant(), a.determinant() && b.determinant());
  }
}

TEST(Gf2Matrix, SerializationRoundTrip) {
  crypto::Prg prg("gf2-ser");
  for (const std::size_t dim : {1u, 2u, 7u, 8u, 9u, 33u, 64u}) {
    const Gf2Matrix m = Gf2Matrix::random(dim, prg);
    const Bytes b = m.to_bytes();
    EXPECT_EQ(b.size(), Gf2Matrix::byte_size(dim));
    EXPECT_EQ(Gf2Matrix::from_bytes(dim, b), m);
  }
  EXPECT_THROW(Gf2Matrix::from_bytes(4, Bytes(1)), SerializationError);
  EXPECT_THROW(Gf2Matrix(0), InvalidArgument);
  EXPECT_THROW(Gf2Matrix(65), InvalidArgument);
}

// ---- BranchingProgram ----------------------------------------------------------

TEST(BranchingProgram, DirectPathCounting) {
  // Two parallel paths 0->2 (one direct, one via 1): f = g_direct ^ (g1 & g2).
  BranchingProgram bp(3);
  bp.add_edge(0, 1, BpGuard::literal(0, 0));
  bp.add_edge(1, 2, BpGuard::literal(1, 0));
  bp.add_edge(0, 2, BpGuard::literal(2, 0));
  for (std::uint64_t mask = 0; mask < 8; ++mask) {
    const std::vector<std::uint64_t> args = {mask & 1, (mask >> 1) & 1, (mask >> 2) & 1};
    const bool expect = ((args[0] & args[1]) ^ args[2]) != 0;
    EXPECT_EQ(bp.eval(args), expect) << mask;
  }
}

TEST(BranchingProgram, FromFormulaMatchesFormulaEval) {
  const char* exprs[] = {"x0",           "~x0",          "x0 & x1",       "x0 | x1",
                         "x0 ^ x1",      "x0 & x1 & x2", "(x0 | x1) & ~x2",
                         "(x0 ^ x1) | (x2 & x0)", "1", "0", "~(x0 & ~x1) ^ x2"};
  for (const char* expr : exprs) {
    const Formula f = Formula::parse(expr);
    const BranchingProgram bp = BranchingProgram::from_formula(f);
    const std::size_t arity = std::max<std::size_t>(f.arity(), 1);
    for (std::uint64_t mask = 0; mask < (std::uint64_t(1) << arity); ++mask) {
      std::vector<bool> fargs(arity);
      std::vector<std::uint64_t> bargs(arity);
      for (std::size_t i = 0; i < arity; ++i) {
        fargs[i] = ((mask >> i) & 1) != 0;
        bargs[i] = (mask >> i) & 1;
      }
      EXPECT_EQ(bp.eval(bargs), f.eval(fargs)) << expr << " mask=" << mask;
    }
  }
}

TEST(BranchingProgram, EqualsConstant) {
  const BranchingProgram bp = BranchingProgram::equals_constant(5, 19);
  for (std::uint64_t v = 0; v < 32; ++v) {
    EXPECT_EQ(bp.eval({v}), v == 19) << v;
  }
  EXPECT_EQ(bp.matrix_dim(), 5u);
}

TEST(BranchingProgram, Validation) {
  EXPECT_THROW(BranchingProgram(1), InvalidArgument);
  BranchingProgram bp(3);
  EXPECT_THROW(bp.add_edge(2, 1, BpGuard::always()), InvalidArgument);
  EXPECT_THROW(bp.add_edge(0, 3, BpGuard::always()), InvalidArgument);
}

// ---- BpPsm ----------------------------------------------------------------------

crypto::Prg::Seed seed_of(const std::string& label) {
  return crypto::Prg(label).fork_seed("bp-psm-test");
}

TEST(BpPsm, ReconstructsEqualityFunction) {
  // Player 0 holds a 4-bit value; f = (y == 11).
  const BpPsm psm(BranchingProgram::equals_constant(4, 11));
  for (std::uint64_t y = 0; y < 16; ++y) {
    const auto seed = seed_of("eq" + std::to_string(y));
    const std::vector<Bytes> msgs = {player_message(psm, 0, y, seed)};
    EXPECT_EQ(psm.reconstruct(msgs, psm.referee_extra(seed)), y == 11) << y;
  }
}

TEST(BpPsm, ReconstructsTwoPlayerFormula) {
  // f(x0, x1) = x0 OR x1, one bit per player.
  const BpPsm psm(BranchingProgram::from_formula(Formula::parse("x0 | x1")));
  ASSERT_EQ(psm.num_players(), 2u);
  for (std::uint64_t a = 0; a < 2; ++a) {
    for (std::uint64_t b = 0; b < 2; ++b) {
      const auto seed = seed_of("or" + std::to_string(a * 2 + b));
      const std::vector<Bytes> msgs = {player_message(psm, 0, a, seed),
                                       player_message(psm, 1, b, seed)};
      EXPECT_EQ(psm.reconstruct(msgs, psm.referee_extra(seed)), (a | b) != 0);
    }
  }
}

TEST(BpPsm, EncodingDeterminantEqualsFunction) {
  const Formula f = Formula::parse("(x0 & x1) ^ x2");
  const BpPsm psm(BranchingProgram::from_formula(f));
  for (std::uint64_t mask = 0; mask < 8; ++mask) {
    const std::vector<std::uint64_t> args = {mask & 1, (mask >> 1) & 1, (mask >> 2) & 1};
    const auto seed = seed_of("det" + std::to_string(mask));
    const bool expect = f.eval({(mask & 1) != 0, ((mask >> 1) & 1) != 0,
                                ((mask >> 2) & 1) != 0});
    EXPECT_EQ(psm.encode(args, seed).determinant(), expect);
  }
}

TEST(BpPsm, PerfectPrivacyEncodingDistribution) {
  // The heart of the [30] security claim: the distribution of L*M(x)*R must
  // depend only on f(x). Compare empirical message distributions for two
  // inputs with the same output, on a small BP (dim 2 -> 16 possible
  // matrices), using many random seeds.
  const BpPsm psm(BranchingProgram::from_formula(Formula::parse("x0 & x1")));
  ASSERT_EQ(psm.matrix_dim(), 2u);
  // f(0,1) = f(1,0) = 0: distributions over encodings must match.
  std::map<Bytes, int> dist_a, dist_b;
  constexpr int kTrials = 20000;
  for (int t = 0; t < kTrials; ++t) {
    const auto seed = seed_of("priv" + std::to_string(t));
    dist_a[psm.encode({0, 1}, seed).to_bytes()]++;
    dist_b[psm.encode({1, 0}, seed).to_bytes()]++;
  }
  ASSERT_EQ(dist_a.size(), dist_b.size());
  for (const auto& [bytes, count] : dist_a) {
    const auto it = dist_b.find(bytes);
    ASSERT_NE(it, dist_b.end());
    EXPECT_NEAR(count, it->second, 5 * std::max(10.0, std::sqrt(count))) << hex_encode(bytes);
  }
}

TEST(BpPsm, ExhaustiveOrbitUniformityDim3) {
  // Exhaustive check of the randomization lemma at dim 3: enumerate all
  // unit upper-triangular (L, R) pairs (2^3 each) and verify that the
  // multiset {L*M*R} is identical for two matrices M, M' of the same form
  // (unit subdiagonal, zero below) with equal determinant.
  auto enumerate = [](const Gf2Matrix& m) {
    std::map<Bytes, int> multiset;
    for (unsigned lbits = 0; lbits < 8; ++lbits) {
      for (unsigned rbits = 0; rbits < 8; ++rbits) {
        Gf2Matrix l = Gf2Matrix::identity(3), r = Gf2Matrix::identity(3);
        l.set(0, 1, lbits & 1);
        l.set(0, 2, (lbits >> 1) & 1);
        l.set(1, 2, (lbits >> 2) & 1);
        r.set(0, 1, rbits & 1);
        r.set(0, 2, (rbits >> 1) & 1);
        r.set(1, 2, (rbits >> 2) & 1);
        multiset[(l * m * r).to_bytes()]++;
      }
    }
    return multiset;
  };
  // Build all matrices with unit subdiagonal / zero below; top area free
  // (entries (0,0),(0,1),(0,2),(1,1),(1,2),(2,2)): 64 matrices.
  std::map<bool, std::vector<Gf2Matrix>> by_det;
  for (unsigned bits = 0; bits < 64; ++bits) {
    Gf2Matrix m(3);
    m.set(1, 0, true);
    m.set(2, 1, true);
    m.set(0, 0, bits & 1);
    m.set(0, 1, (bits >> 1) & 1);
    m.set(0, 2, (bits >> 2) & 1);
    m.set(1, 1, (bits >> 3) & 1);
    m.set(1, 2, (bits >> 4) & 1);
    m.set(2, 2, (bits >> 5) & 1);
    by_det[m.determinant()].push_back(m);
  }
  for (const auto& [det, matrices] : by_det) {
    ASSERT_GE(matrices.size(), 2u);
    const auto reference = enumerate(matrices[0]);
    for (std::size_t i = 1; i < matrices.size(); ++i) {
      EXPECT_EQ(enumerate(matrices[i]), reference) << "det=" << det << " i=" << i;
    }
  }
}

TEST(BpPsm, MessageSizeMatchesDim) {
  const BpPsm psm(BranchingProgram::equals_constant(8, 0));
  EXPECT_EQ(psm.message_bytes(), Gf2Matrix::byte_size(8));
  const auto seed = seed_of("size");
  EXPECT_EQ(player_message(psm, 0, 5, seed).size(), psm.message_bytes());
}

TEST(BpPsm, Validation) {
  BranchingProgram no_inputs(2);
  no_inputs.add_edge(0, 1, BpGuard::always());
  EXPECT_THROW(BpPsm{no_inputs}, InvalidArgument);
  const BpPsm psm(BranchingProgram::equals_constant(4, 1));
  const auto seed = seed_of("v");
  EXPECT_THROW(player_message(psm, 1, 0, seed), InvalidArgument);
  EXPECT_THROW(psm.reconstruct({}, Bytes(Gf2Matrix::byte_size(4))), InvalidArgument);
}

}  // namespace
}  // namespace spfe::psm
