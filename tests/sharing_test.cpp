#include <gtest/gtest.h>

#include <map>

#include "common/error.h"
#include "field/fp64.h"
#include "sharing/shamir.h"

namespace spfe::sharing {
namespace {

using field::Fp64;

TEST(Shamir, SplitReconstructFp64) {
  const Fp64 f(1009);
  crypto::Prg prg("shamir");
  for (std::size_t t : {1u, 2u, 4u}) {
    const std::size_t k = 2 * t + 1;
    const std::uint64_t secret = f.random(prg);
    const auto shares = shamir_split(f, secret, k, t, prg);
    ASSERT_EQ(shares.size(), k);
    // Any t+1 of them reconstruct.
    std::vector<ShamirShare<Fp64>> subset(shares.begin(),
                                          shares.begin() + static_cast<std::ptrdiff_t>(t + 1));
    EXPECT_EQ(shamir_reconstruct(f, subset), secret);
    // A different subset too.
    std::vector<ShamirShare<Fp64>> subset2(shares.end() - static_cast<std::ptrdiff_t>(t + 1),
                                           shares.end());
    EXPECT_EQ(shamir_reconstruct(f, subset2), secret);
  }
}

TEST(Shamir, TSharesRevealNothing) {
  // With threshold t, the distribution of any t shares is independent of the
  // secret: check statistically for t=1 over a small field.
  const Fp64 f(7);
  std::map<std::uint64_t, int> counts_secret0, counts_secret3;
  crypto::Prg prg("hiding");
  for (int trial = 0; trial < 7000; ++trial) {
    counts_secret0[shamir_split(f, std::uint64_t(0), 3, 1, prg)[0].y]++;
    counts_secret3[shamir_split(f, std::uint64_t(3), 3, 1, prg)[0].y]++;
  }
  for (std::uint64_t v = 0; v < 7; ++v) {
    const double ratio = static_cast<double>(counts_secret0[v]) /
                         static_cast<double>(counts_secret3[v]);
    EXPECT_GT(ratio, 0.75) << "share value " << v;
    EXPECT_LT(ratio, 1.33) << "share value " << v;
  }
}

TEST(Shamir, RejectsThresholdGeqShares) {
  const Fp64 f(101);
  crypto::Prg prg("bad-shamir");
  EXPECT_THROW(shamir_split(f, std::uint64_t(5), 3, 3, prg), InvalidArgument);
}

TEST(Shamir, RobustReconstructCorrectsLies) {
  const Fp64 f(Fp64::kMersenne61);
  crypto::Prg prg("shamir-robust");
  for (std::size_t t : {1u, 2u}) {
    for (std::size_t e = 1; e <= 2; ++e) {
      const std::size_t k = t + 1 + 2 * e;
      const std::uint64_t secret = f.random(prg);
      auto shares = shamir_split(f, secret, k, t, prg);
      for (std::size_t j = 0; j < e; ++j) shares[j].y = f.add(shares[j].y, 17 + j);
      EXPECT_EQ(shamir_reconstruct_robust(f, shares, t), secret) << "t=" << t << " e=" << e;
    }
  }
}

TEST(Shamir, RobustReconstructHandlesErasuresAndLies) {
  // k = t + 1 + 2e + c shares; drop c (crashed parties) and corrupt e.
  const Fp64 f(Fp64::kMersenne61);
  crypto::Prg prg("shamir-erasures");
  const std::size_t t = 2, e = 1, c = 2;
  const std::size_t k = t + 1 + 2 * e + c;
  const std::uint64_t secret = f.random(prg);
  auto shares = shamir_split(f, secret, k, t, prg);
  shares.erase(shares.begin(), shares.begin() + c);  // erasures
  shares[0].y = f.add(shares[0].y, 5);               // one lie
  EXPECT_EQ(shamir_reconstruct_robust(f, shares, t), secret);
}

TEST(Shamir, RobustReconstructThrowsBeyondBudget) {
  const Fp64 f(Fp64::kMersenne61);
  crypto::Prg prg("shamir-overload");
  const std::size_t t = 1;
  const std::uint64_t secret = f.random(prg);
  // Too few shares outright.
  auto shares = shamir_split(f, secret, 5, t, prg);
  std::vector<ShamirShare<Fp64>> one(shares.begin(), shares.begin() + 1);
  EXPECT_THROW(shamir_reconstruct_robust(f, one, t), ProtocolError);
  // Enough shares, but a lie with zero error slack (s = t + 2): detected.
  std::vector<ShamirShare<Fp64>> three(shares.begin(), shares.begin() + 3);
  three[1].y = f.add(three[1].y, 9);
  EXPECT_THROW(shamir_reconstruct_robust(f, three, t), ProtocolError);
}

}  // namespace
}  // namespace spfe::sharing
