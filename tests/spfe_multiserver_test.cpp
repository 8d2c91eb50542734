#include <gtest/gtest.h>

#include "common/error.h"
#include "net/sim.h"
#include "spfe/multiserver.h"

namespace spfe::protocols {
namespace {

using circuits::Formula;
using field::Fp64;

std::vector<std::uint64_t> bit_db(std::size_t n, std::uint64_t pattern) {
  std::vector<std::uint64_t> db(n);
  for (std::size_t i = 0; i < n; ++i) db[i] = (pattern >> (i % 64)) & 1;
  return db;
}

class MultiServerFormulaTest : public ::testing::Test {
 protected:
  MultiServerFormulaTest() : field_(Fp64::kMersenne61), prg_("ms-formula") {}

  std::uint64_t run_formula(const Formula& f, std::size_t n,
                            const std::vector<std::uint64_t>& db,
                            const std::vector<std::size_t>& indices, std::size_t t,
                            bool spir) {
    const std::size_t k = MultiServerFormulaSpfe::min_servers(f, n, t);
    const MultiServerFormulaSpfe proto(field_, f, n, k, t);
    net::StarNetwork net(k);
    std::optional<crypto::Prg::Seed> seed;
    if (spir) seed = crypto::Prg::random_seed();
    return proto.run(net, db, indices, seed, prg_);
  }

  Fp64 field_;
  crypto::Prg prg_;
};

TEST_F(MultiServerFormulaTest, AndOfTwoBits) {
  const Formula f = Formula::parse("x0 & x1");
  constexpr std::size_t kN = 16;
  const auto db = bit_db(kN, 0xF0F0);
  for (const auto& [i0, i1] : std::vector<std::pair<std::size_t, std::size_t>>{
           {0, 1}, {4, 5}, {3, 12}, {15, 14}}) {
    const bool expect = db[i0] && db[i1];
    EXPECT_EQ(run_formula(f, kN, db, {i0, i1}, 1, false), expect ? 1u : 0u)
        << i0 << "," << i1;
  }
}

TEST_F(MultiServerFormulaTest, ComplexFormulaMatchesPlainEval) {
  const Formula f = Formula::parse("((x0 & x1) | ~x2) ^ x3");
  constexpr std::size_t kN = 32;
  const auto db = bit_db(kN, 0xdeadbeef);
  const std::vector<std::size_t> indices = {3, 17, 8, 30};
  std::vector<bool> args;
  for (const std::size_t i : indices) args.push_back(db[i] != 0);
  EXPECT_EQ(run_formula(f, kN, db, indices, 1, false), f.eval(args) ? 1u : 0u);
}

TEST_F(MultiServerFormulaTest, HigherThreshold) {
  const Formula f = Formula::parse("x0 ^ x1");
  constexpr std::size_t kN = 8;
  const auto db = bit_db(kN, 0b10110100);
  EXPECT_EQ(run_formula(f, kN, db, {2, 5}, 2, false), (db[2] ^ db[5]));
  EXPECT_EQ(run_formula(f, kN, db, {2, 5}, 3, true), (db[2] ^ db[5]));
}

TEST_F(MultiServerFormulaTest, SpirMaskingPreservesResult) {
  const Formula f = Formula::parse("x0 | x1 | x2");
  constexpr std::size_t kN = 64;
  const auto db = bit_db(kN, 1);  // only x_0 is set
  EXPECT_EQ(run_formula(f, kN, db, {0, 10, 20}, 1, true), 1u);
  EXPECT_EQ(run_formula(f, kN, db, {30, 10, 20}, 1, true), 0u);
}

TEST_F(MultiServerFormulaTest, ServerCountFormula) {
  // Theorem 2: k = t * s * ceil(log2 n) + 1 for a formula of size s.
  const Formula f = Formula::parse("(x0 & x1) | x2");  // s = 3
  EXPECT_EQ(MultiServerFormulaSpfe::min_servers(f, 1024, 1), 3 * 10 + 1u);
  EXPECT_EQ(MultiServerFormulaSpfe::min_servers(f, 1024, 2), 2 * 3 * 10 + 1u);
  // Sum (s = 1 leaf): degree = log n.
  EXPECT_EQ(MultiServerSumSpfe::min_servers(1024, 1), 11u);
}

TEST_F(MultiServerFormulaTest, RejectsNonBitDatabase) {
  const Formula f = Formula::parse("x0 & x1");
  const std::size_t k = MultiServerFormulaSpfe::min_servers(f, 8, 1);
  const MultiServerFormulaSpfe proto(field_, f, 8, k, 1);
  net::StarNetwork net(k);
  std::vector<std::uint64_t> db(8, 5);  // not bits
  EXPECT_THROW(proto.run(net, db, {0, 1}, std::nullopt, prg_), InvalidArgument);
  EXPECT_TRUE(net.idle());
  // The robust run refuses it as the caller's error too, before any query
  // goes out, rather than blaming every server for rejecting it.
  net::SimStarNetwork sim(k, net::SimConfig{});
  EXPECT_THROW(proto.run_robust(sim, db, {0, 1}, std::nullopt, prg_), InvalidArgument);
  EXPECT_EQ(sim.stats().total_bytes(), 0u);
  EXPECT_TRUE(sim.idle());
}

TEST_F(MultiServerFormulaTest, RejectsTooFewServers) {
  const Formula f = Formula::parse("x0 & x1");
  EXPECT_THROW(MultiServerFormulaSpfe(field_, f, 1024, 10, 1), InvalidArgument);
}

TEST_F(MultiServerFormulaTest, OneRoundExchange) {
  const Formula f = Formula::parse("x0 & x1");
  constexpr std::size_t kN = 16;
  const std::size_t k = MultiServerFormulaSpfe::min_servers(f, kN, 1);
  const MultiServerFormulaSpfe proto(field_, f, kN, k, 1);
  net::StarNetwork net(k);
  const auto db = bit_db(kN, 0xffff);
  proto.run(net, db, {1, 2}, std::nullopt, prg_);
  EXPECT_DOUBLE_EQ(net.stats().rounds(), 1.0);
  EXPECT_TRUE(net.idle());
}

class MultiServerSumTest : public ::testing::Test {
 protected:
  MultiServerSumTest() : field_(Fp64::kMersenne61), prg_("ms-sum") {}

  Fp64 field_;
  crypto::Prg prg_;
};

TEST_F(MultiServerSumTest, SumsSelectedItems) {
  constexpr std::size_t kN = 100, kM = 5, kT = 1;
  const std::size_t k = MultiServerSumSpfe::min_servers(kN, kT);
  const MultiServerSumSpfe proto(field_, kN, kM, k, kT);
  std::vector<std::uint64_t> db(kN);
  for (std::size_t i = 0; i < kN; ++i) db[i] = i * i;
  net::StarNetwork net(k);
  const std::vector<std::size_t> indices = {1, 10, 50, 99, 3};
  std::uint64_t expect = 0;
  for (const std::size_t i : indices) expect += db[i];
  EXPECT_EQ(proto.run(net, db, indices, std::nullopt, prg_), expect);
}

TEST_F(MultiServerSumTest, RepeatedIndicesAllowed) {
  constexpr std::size_t kN = 16, kM = 3, kT = 1;
  const std::size_t k = MultiServerSumSpfe::min_servers(kN, kT);
  const MultiServerSumSpfe proto(field_, kN, kM, k, kT);
  std::vector<std::uint64_t> db(kN, 7);
  net::StarNetwork net(k);
  EXPECT_EQ(proto.run(net, db, {5, 5, 5}, std::nullopt, prg_), 21u);
}

TEST_F(MultiServerSumTest, WithSymmetricPrivacyMask) {
  constexpr std::size_t kN = 64, kM = 4, kT = 2;
  const std::size_t k = MultiServerSumSpfe::min_servers(kN, kT);
  const MultiServerSumSpfe proto(field_, kN, kM, k, kT);
  std::vector<std::uint64_t> db(kN);
  for (std::size_t i = 0; i < kN; ++i) db[i] = 1000 + i;
  net::StarNetwork net(k);
  const std::vector<std::size_t> indices = {0, 21, 42, 63};
  std::uint64_t expect = 0;
  for (const std::size_t i : indices) expect += db[i];
  const auto seed = crypto::Prg::random_seed();
  EXPECT_EQ(proto.run(net, db, indices, seed, prg_), expect);
}

TEST_F(MultiServerSumTest, CommunicationScalesWithServers) {
  // Comm ~ k * (m * log n + 1) field elements (Theorem 2).
  constexpr std::size_t kN = 256, kM = 4, kT = 1;
  const std::size_t k = MultiServerSumSpfe::min_servers(kN, kT);
  const MultiServerSumSpfe proto(field_, kN, kM, k, kT);
  std::vector<std::uint64_t> db(kN, 1);
  net::StarNetwork net(k);
  proto.run(net, db, {0, 1, 2, 3}, std::nullopt, prg_);
  const std::size_t l = 8;  // log2 256
  EXPECT_EQ(net.stats().client_to_server_bytes, k * kM * l * 8);
  EXPECT_EQ(net.stats().server_to_client_bytes, k * 8);
}

}  // namespace
}  // namespace spfe::protocols
