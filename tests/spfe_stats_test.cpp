#include <gtest/gtest.h>

#include "common/error.h"
#include "dbgen/census.h"
#include "spfe/stats.h"

namespace spfe::protocols {
namespace {

using field::Fp64;

class StatsTest : public ::testing::Test {
 protected:
  StatsTest()
      : client_prg_("stats-client"),
        server_prg_("stats-server"),
        client_sk_(he::paillier_keygen(client_prg_, 512)),
        server_sk_(he::paillier_keygen(server_prg_, 512)) {}

  static std::vector<std::uint64_t> make_db(std::size_t n, std::uint64_t cap) {
    std::vector<std::uint64_t> db(n);
    for (std::size_t i = 0; i < n; ++i) db[i] = (i * 97 + 13) % cap;
    return db;
  }

  crypto::Prg client_prg_, server_prg_;
  he::PaillierPrivateKey client_sk_;
  he::PaillierPrivateKey server_sk_;
};

TEST_F(StatsTest, WeightedSumMatchesPlainComputation) {
  constexpr std::size_t kN = 64, kM = 4;
  const Fp64 field(field::smallest_prime_above(1u << 24));
  const auto db = make_db(kN, 10000);
  const WeightedSumProtocol proto(field, kN, kM, 1);
  const std::vector<std::size_t> indices = {3, 9, 33, 63};
  const std::vector<std::uint64_t> weights = {1, 2, 3, 4};
  net::StarNetwork net(1);
  const std::uint64_t got =
      proto.run(net, 0, db, indices, weights, client_sk_, client_prg_, server_prg_);
  std::uint64_t expect = 0;
  for (std::size_t j = 0; j < kM; ++j) expect += weights[j] * db[indices[j]];
  EXPECT_EQ(got, expect);
}

TEST_F(StatsTest, WeightedSumIsOneRound) {
  constexpr std::size_t kN = 32, kM = 2;
  const Fp64 field(field::smallest_prime_above(1u << 20));
  const auto db = make_db(kN, 1000);
  const WeightedSumProtocol proto(field, kN, kM, 1);
  net::StarNetwork net(1);
  proto.run(net, 0, db, {1, 2}, {1, 1}, client_sk_, client_prg_, server_prg_);
  EXPECT_DOUBLE_EQ(net.stats().rounds(), 1.0);
  EXPECT_TRUE(net.idle());
}

TEST_F(StatsTest, PlainSumViaUnitWeights) {
  constexpr std::size_t kN = 50, kM = 5;
  const Fp64 field(field::smallest_prime_above(1u << 22));
  const auto db = make_db(kN, 5000);
  const WeightedSumProtocol proto(field, kN, kM, 1);
  const std::vector<std::size_t> indices = {0, 10, 20, 30, 49};
  net::StarNetwork net(1);
  const std::uint64_t got = proto.run(net, 0, db, indices,
                                      std::vector<std::uint64_t>(kM, 1), client_sk_,
                                      client_prg_, server_prg_);
  std::uint64_t expect = 0;
  for (const std::size_t i : indices) expect += db[i];
  EXPECT_EQ(got, expect);
}

TEST_F(StatsTest, MeanVariancePackage) {
  constexpr std::size_t kN = 40, kM = 4;
  const Fp64 field(field::smallest_prime_above(1ull << 30));
  std::vector<std::uint64_t> db(kN);
  for (std::size_t i = 0; i < kN; ++i) db[i] = 100 + i;
  const MeanVariancePackage proto(field, kN, kM, 1);
  const std::vector<std::size_t> indices = {0, 10, 20, 30};  // values 100,110,120,130
  net::StarNetwork net(1);
  const MeanVarianceResult res =
      proto.run(net, 0, db, indices, client_sk_, client_prg_, server_prg_);
  EXPECT_EQ(res.sum, 100u + 110 + 120 + 130);
  EXPECT_EQ(res.sum_of_squares, 100u * 100 + 110 * 110 + 120 * 120 + 130 * 130);
  EXPECT_DOUBLE_EQ(res.mean, 115.0);
  EXPECT_DOUBLE_EQ(res.variance, 125.0);  // population variance of {100,110,120,130}
  EXPECT_DOUBLE_EQ(net.stats().rounds(), 1.0);  // still one round (§4 package)
}

TEST_F(StatsTest, PackageIsOneSpirAnswerPlusOneCiphertext) {
  // The package answers the weighted sum's one SPIR query once, over items
  // that carry both masked views side by side: beyond the weighted sum it
  // sends only the squares view's mask ciphertext.
  constexpr std::size_t kN = 300, kM = 8;
  const Fp64 field(field::smallest_prime_above(1ull << 30));
  const auto db = make_db(kN, 10000);
  const std::vector<std::size_t> indices = {0, 17, 42, 99, 150, 151, 250, 299};
  std::uint64_t expect_sum = 0, expect_squares = 0;
  for (const std::size_t i : indices) {
    expect_sum += db[i];
    expect_squares += db[i] * db[i];
  }
  for (const std::size_t depth : {1u, 2u}) {
    net::StarNetwork sum_net(1), package_net(1);
    EXPECT_EQ(WeightedSumProtocol(field, kN, kM, depth)
                  .run(sum_net, 0, db, indices, std::vector<std::uint64_t>(kM, 1), client_sk_,
                       client_prg_, server_prg_),
              expect_sum);
    const MeanVarianceResult res = MeanVariancePackage(field, kN, kM, depth)
                                       .run(package_net, 0, db, indices, client_sk_,
                                            client_prg_, server_prg_);
    EXPECT_EQ(res.sum, expect_sum) << "depth " << depth;
    EXPECT_EQ(res.sum_of_squares, expect_squares) << "depth " << depth;
    EXPECT_EQ(package_net.stats().total_bytes(),
              sum_net.stats().total_bytes() + client_sk_.public_key().ciphertext_bytes())
        << "depth " << depth;
  }
}

TEST_F(StatsTest, PackageExactAtWideLanes) {
  // p = 2^63 - 25, the widest Fp64 prime: 63-bit lanes, 16-byte items.
  // Values reach 2^29, so m * max^2 = 2^61 < p keeps both sums exact.
  constexpr std::size_t kN = 64, kM = 8;
  const Fp64 field((std::uint64_t{1} << 63) - 25);
  std::vector<std::uint64_t> db(kN);
  for (std::size_t i = 0; i < kN; ++i) db[i] = (std::uint64_t{1} << 29) - i * 7919;
  db[40] = std::uint64_t{1} << 29;
  const std::vector<std::size_t> indices = {0, 1, 9, 40, 41, 50, 62, 63};
  std::uint64_t expect_sum = 0, expect_squares = 0;
  for (const std::size_t i : indices) {
    expect_sum += db[i];
    expect_squares += db[i] * db[i];
  }
  for (const std::size_t depth : {1u, 2u}) {
    net::StarNetwork net(1);
    const MeanVarianceResult res = MeanVariancePackage(field, kN, kM, depth)
                                       .run(net, 0, db, indices, client_sk_, client_prg_,
                                            server_prg_);
    EXPECT_EQ(res.sum, expect_sum) << "depth " << depth;
    EXPECT_EQ(res.sum_of_squares, expect_squares) << "depth " << depth;
  }
}

TEST_F(StatsTest, FrequencyCountsKeyword) {
  constexpr std::size_t kN = 30, kM = 6;
  const Fp64 field(field::smallest_prime_above(1u << 16));
  std::vector<std::uint64_t> db(kN);
  for (std::size_t i = 0; i < kN; ++i) db[i] = i % 5;
  const FrequencyProtocol proto(field, kN, kM, SelectionMethod::kPolyMaskClientKey, 1);
  // indices with values {2, 2, 0, 3, 2, 4}: keyword 2 appears 3 times.
  const std::vector<std::size_t> indices = {2, 7, 10, 13, 22, 29};
  net::StarNetwork net(1);
  EXPECT_EQ(proto.run(net, 0, db, indices, 2, client_sk_, server_sk_, client_prg_, server_prg_),
            3u);
  EXPECT_EQ(net.stats().half_rounds, 4u);  // selection round + one extra round
}

TEST_F(StatsTest, FrequencyZeroAndAllMatches) {
  constexpr std::size_t kN = 16, kM = 3;
  const Fp64 field(field::smallest_prime_above(1u << 16));
  std::vector<std::uint64_t> db(kN, 42);
  const FrequencyProtocol proto(field, kN, kM, SelectionMethod::kEncryptedDb, 1);
  net::StarNetwork net(1);
  EXPECT_EQ(proto.run(net, 0, db, {0, 5, 15}, 42, client_sk_, server_sk_, client_prg_,
                      server_prg_),
            3u);
  net::StarNetwork net2(1);
  EXPECT_EQ(proto.run(net2, 0, db, {0, 5, 15}, 7, client_sk_, server_sk_, client_prg_,
                      server_prg_),
            0u);
}

TEST_F(StatsTest, CensusWorkloadEndToEnd) {
  // The motivating scenario: average salary of a public-attribute cohort.
  crypto::Prg data_prg("census");
  dbgen::CensusOptions options;
  options.num_records = 128;
  options.num_zip_codes = 4;
  const dbgen::CensusDatabase census = dbgen::generate_census(options, data_prg);
  const auto salaries = census.private_column();

  constexpr std::size_t kM = 8;
  const auto indices = census.select_sample(
      [](const dbgen::CensusRecord& r) { return r.zip_code == 2; }, kM);

  const Fp64 field(field::smallest_prime_above(kM * 200'000ull * 200'000ull));
  const MeanVariancePackage proto(field, salaries.size(), kM, 1);
  net::StarNetwork net(1);
  const auto res = proto.run(net, 0, salaries, indices, client_sk_, client_prg_, server_prg_);

  std::uint64_t expect_sum = 0;
  for (const std::size_t i : indices) expect_sum += salaries[i];
  EXPECT_EQ(res.sum, expect_sum);
  EXPECT_GT(res.mean, 0.0);
  EXPECT_GE(res.variance, 0.0);
}

TEST_F(StatsTest, Validation) {
  const Fp64 field(1009);
  EXPECT_THROW(WeightedSumProtocol(field, 2000, 4, 1), InvalidArgument);  // field <= n
  const Fp64 ok(field::smallest_prime_above(1u << 16));
  const WeightedSumProtocol proto(ok, 16, 2, 1);
  const auto db = std::vector<std::uint64_t>(16, 1);
  net::StarNetwork net(1);
  EXPECT_THROW(proto.run(net, 0, db, {1}, {1, 1}, client_sk_, client_prg_, server_prg_),
               InvalidArgument);
  EXPECT_THROW(
      proto.run(net, 0, db, {1, 2}, {1}, client_sk_, client_prg_, server_prg_),
      InvalidArgument);
}

TEST(CensusGen, GeneratesValidRecords) {
  crypto::Prg prg("gen-test");
  dbgen::CensusOptions options;
  options.num_records = 200;
  options.num_zip_codes = 10;
  const auto db = dbgen::generate_census(options, prg);
  ASSERT_EQ(db.size(), 200u);
  for (const auto& r : db.records) {
    EXPECT_LT(r.zip_code, 10u);
    EXPECT_LT(r.age_bracket, 8);
    EXPECT_LE(r.salary, options.max_salary);
  }
  // The select helpers agree.
  const auto all = db.select([](const auto& r) { return r.zip_code == 3; });
  EXPECT_FALSE(all.empty());
  const auto sample = db.select_sample([](const auto& r) { return r.zip_code == 3; }, 2);
  EXPECT_EQ(sample.size(), 2u);
  EXPECT_EQ(sample[0], all[0]);
  EXPECT_THROW(db.select_sample([](const auto&) { return false; }, 1), InvalidArgument);
}

}  // namespace
}  // namespace spfe::protocols
