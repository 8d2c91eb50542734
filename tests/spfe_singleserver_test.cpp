#include <gtest/gtest.h>

#include "circuits/arith_circuit.h"
#include "common/error.h"
#include "spfe/input_selection.h"
#include "spfe/psm_spfe.h"
#include "spfe/two_phase.h"

namespace spfe::protocols {
namespace {

using circuits::ArithCircuit;
using field::Fp64;

// Shared fixture: 256-bit keys keep the suite quick; bench targets use
// production sizes.
class SingleServerSpfeTest : public ::testing::Test {
 protected:
  SingleServerSpfeTest()
      : client_prg_("ss-client"),
        server_prg_("ss-server"),
        client_sk_(he::paillier_keygen(client_prg_, 512)),
        server_sk_(he::paillier_keygen(server_prg_, 512)) {}

  static std::vector<std::uint64_t> make_db(std::size_t n, std::uint64_t modulus) {
    std::vector<std::uint64_t> db(n);
    for (std::size_t i = 0; i < n; ++i) db[i] = (i * 37 + 11) % modulus;
    return db;
  }

  crypto::Prg client_prg_, server_prg_;
  he::PaillierPrivateKey client_sk_;
  he::PaillierPrivateKey server_sk_;
};

// ---- PSM-based SPFE (§3.2) --------------------------------------------------

TEST_F(SingleServerSpfeTest, PsmSumSpfe) {
  constexpr std::size_t kN = 40, kM = 3;
  constexpr std::uint64_t kU = 1000;
  const auto db = make_db(kN, kU);
  const PsmSumSpfeSingleServer proto(client_sk_.public_key(), kN, kM, kU, 1);
  net::StarNetwork net(1);
  const std::vector<std::size_t> indices = {5, 17, 39};
  std::uint64_t expect = 0;
  for (const std::size_t i : indices) expect = (expect + db[i]) % kU;
  EXPECT_EQ(proto.run(net, db, indices, client_sk_, client_prg_, server_prg_), expect);
  EXPECT_DOUBLE_EQ(net.stats().rounds(), 1.0);  // Theorem 3: one round
  EXPECT_TRUE(net.idle());
}

TEST_F(SingleServerSpfeTest, PsmSumSpfeDepth2Pir) {
  constexpr std::size_t kN = 60, kM = 2;
  constexpr std::uint64_t kU = 1 << 16;
  const auto db = make_db(kN, kU);
  const PsmSumSpfeSingleServer proto(client_sk_.public_key(), kN, kM, kU, 2);
  net::StarNetwork net(1);
  EXPECT_EQ(proto.run(net, db, {0, 59}, client_sk_, client_prg_, server_prg_),
            (db[0] + db[59]) % kU);
}

TEST_F(SingleServerSpfeTest, PsmYaoSpfeThresholdFunction) {
  // f = (x_a + x_b >= 16)? Using a 4-bit adder and checking the carry bit.
  constexpr std::size_t kN = 25, kM = 2, kBits = 4;
  std::vector<std::uint64_t> db(kN);
  for (std::size_t i = 0; i < kN; ++i) db[i] = i % 16;

  circuits::BooleanCircuit circuit(kM * kBits);
  circuits::WireBundle a, b;
  for (std::size_t i = 0; i < kBits; ++i) a.push_back(circuit.input(i));
  for (std::size_t i = 0; i < kBits; ++i) b.push_back(circuit.input(kBits + i));
  const auto sum = circuits::build_add(circuit, a, b);
  circuit.add_output(sum.back());  // carry = (x_a + x_b >= 16)

  const PsmYaoSpfeSingleServer proto(client_sk_.public_key(), circuit, kN, kM, kBits, 1);
  for (const auto& [i0, i1] : std::vector<std::pair<std::size_t, std::size_t>>{
           {3, 5}, {15, 15}, {9, 8}, {24, 20}}) {
    net::StarNetwork net(1);
    const auto out =
        proto.run(net, db, {i0, i1}, client_sk_, client_prg_, server_prg_);
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0], db[i0] + db[i1] >= 16) << i0 << "," << i1;
    EXPECT_DOUBLE_EQ(net.stats().rounds(), 1.0);
  }
}

TEST_F(SingleServerSpfeTest, PsmSpfeMultiServer) {
  constexpr std::size_t kN = 32, kM = 3, kT = 1;
  constexpr std::uint64_t kU = 5000;
  const Fp64 field(Fp64::kMersenne61);
  const std::size_t k = pir::PolyItPir::min_servers(kN, kT);
  const PsmSumSpfeMultiServer proto(field, kN, kM, kU, k, kT);
  const auto db = make_db(kN, kU);
  net::StarNetwork net(k);
  const std::vector<std::size_t> indices = {0, 15, 31};
  std::uint64_t expect = 0;
  for (const std::size_t i : indices) expect = (expect + db[i]) % kU;
  EXPECT_EQ(proto.run(net, db, indices, client_prg_, server_prg_), expect);
  EXPECT_DOUBLE_EQ(net.stats().rounds(), 1.0);
}

TEST_F(SingleServerSpfeTest, PsmBpSpfeKeywordMatch) {
  // f = (x_{i0} == 13): a branching-program PSM with perfect PSM privacy.
  constexpr std::size_t kN = 30, kBits = 5;
  std::vector<std::uint64_t> db(kN);
  for (std::size_t i = 0; i < kN; ++i) db[i] = i % 32;
  const PsmBpSpfeSingleServer proto(client_sk_.public_key(),
                                    circuits::BranchingProgram::equals_constant(kBits, 13),
                                    kN, 1);
  for (const std::size_t idx : {13u, 14u, 29u}) {
    net::StarNetwork net(1);
    EXPECT_EQ(proto.run(net, db, {idx}, client_sk_, client_prg_, server_prg_), db[idx] == 13)
        << idx;
    EXPECT_DOUBLE_EQ(net.stats().rounds(), 1.0);
  }
}

TEST_F(SingleServerSpfeTest, PsmBpSpfeTwoArgFormula) {
  // f(x_{i0}, x_{i1}) = bit0(x_{i0}) OR bit0(x_{i1}) on a bit database.
  constexpr std::size_t kN = 16;
  std::vector<std::uint64_t> db(kN);
  for (std::size_t i = 0; i < kN; ++i) db[i] = i & 1;
  const auto bp =
      circuits::BranchingProgram::from_formula(circuits::Formula::parse("x0 | x1"));
  const PsmBpSpfeSingleServer proto(client_sk_.public_key(), bp, kN, 1);
  for (const auto& [a, b] : std::vector<std::pair<std::size_t, std::size_t>>{
           {0, 2}, {1, 2}, {0, 3}, {5, 7}}) {
    net::StarNetwork net(1);
    EXPECT_EQ(proto.run(net, db, {a, b}, client_sk_, client_prg_, server_prg_),
              (db[a] | db[b]) != 0)
        << a << "," << b;
  }
}

TEST_F(SingleServerSpfeTest, PsmBpSpfeMultiServerFullyIt) {
  // Perfect PSM + IT SPIR: unconditional security on both sides.
  constexpr std::size_t kN = 32, kBits = 4, kT = 1;
  std::vector<std::uint64_t> db(kN);
  for (std::size_t i = 0; i < kN; ++i) db[i] = (i * 3) % 16;
  const field::Fp64 field(field::Fp64::kMersenne61);
  const std::size_t k = pir::PolyItPir::min_servers(kN, kT);
  const PsmBpSpfeMultiServer proto(
      field, circuits::BranchingProgram::equals_constant(kBits, 9), kN, k, kT);
  for (const std::size_t idx : {3u, 17u, 31u}) {
    net::StarNetwork net(k);
    EXPECT_EQ(proto.run(net, db, {idx}, client_prg_, server_prg_), db[idx] == 9) << idx;
    EXPECT_DOUBLE_EQ(net.stats().rounds(), 1.0);
  }
}

// ---- Input selection (§3.3.1–§3.3.3) ---------------------------------------

class InputSelectionTest : public SingleServerSpfeTest,
                           public ::testing::WithParamInterface<SelectionMethod> {};

TEST_P(InputSelectionTest, SharesReconstructSelectedItems) {
  constexpr std::size_t kN = 64, kM = 4;
  const std::uint64_t modulus = field::smallest_prime_above(std::max<std::uint64_t>(kN, 1000));
  const auto db = make_db(kN, 1000);
  net::StarNetwork net(1);
  const std::vector<std::size_t> indices = {0, 13, 37, 63};
  const SelectedShares shares =
      run_input_selection(net, 0, db, indices, modulus, GetParam(), client_sk_, server_sk_, 1,
                          client_prg_, server_prg_);
  ASSERT_EQ(shares.client_shares.size(), kM);
  ASSERT_EQ(shares.server_shares.size(), kM);
  for (std::size_t j = 0; j < kM; ++j) {
    const std::uint64_t sum =
        (shares.client_shares[j] + shares.server_shares[j]) % shares.modulus;
    EXPECT_EQ(sum, db[indices[j]]) << selection_method_name(GetParam()) << " slot " << j;
  }
  EXPECT_TRUE(net.idle());
}

TEST_P(InputSelectionTest, SharesAreNontrivial) {
  // The client share alone must not equal the item (the mask is active).
  constexpr std::size_t kN = 32, kM = 8;
  const std::uint64_t modulus = field::smallest_prime_above(100000);
  const auto db = make_db(kN, 1000);
  net::StarNetwork net(1);
  const std::vector<std::size_t> indices = {1, 2, 3, 4, 5, 6, 7, 8};
  const SelectedShares shares =
      run_input_selection(net, 0, db, indices, modulus, GetParam(), client_sk_, server_sk_, 1,
                          client_prg_, server_prg_);
  std::size_t trivial = 0;
  for (std::size_t j = 0; j < kM; ++j) {
    if (shares.client_shares[j] == db[indices[j]]) ++trivial;
  }
  EXPECT_LT(trivial, kM);  // all-trivial would mean no masking at all
}

INSTANTIATE_TEST_SUITE_P(AllMethods, InputSelectionTest,
                         ::testing::Values(SelectionMethod::kPerItem,
                                           SelectionMethod::kPolyMaskClientKey,
                                           SelectionMethod::kPolyMaskServerKey,
                                           SelectionMethod::kEncryptedDb),
                         [](const auto& inst) {
                           switch (inst.param) {
                             case SelectionMethod::kPerItem:
                               return "PerItem";
                             case SelectionMethod::kPolyMaskClientKey:
                               return "PolyMaskClientKey";
                             case SelectionMethod::kPolyMaskServerKey:
                               return "PolyMaskServerKey";
                             case SelectionMethod::kEncryptedDb:
                               return "EncryptedDb";
                           }
                           return "Unknown";
                         });

// §3.3.2 evaluates the mask P_s at i + 1 mod p. With p = 37 and n = 40,
// indices 0 and 37 share the mask point 1, and the client would read
// x_0 - x_37 off its two SPIR items. Both variants refuse such a field
// before any message; the smallest prime above n serves the same indices.
class PolyMaskFieldSize : public SingleServerSpfeTest {};

TEST_F(PolyMaskFieldSize, FieldNotAboveDatabaseSizeIsRefusedBeforeAnyMessage) {
  constexpr std::size_t kN = 40;
  const std::vector<std::size_t> indices = {0, 37};
  for (const std::uint64_t p : {std::uint64_t{37}, field::smallest_prime_above(kN)}) {
    const Fp64 field(p);
    const auto db = make_db(kN, p);
    net::StarNetwork client_key_net(1), server_key_net(1);
    const auto client_key = [&] {
      return input_selection_poly_mask_client_key(client_key_net, 0, db, indices, field,
                                                  client_sk_, 1, client_prg_, server_prg_);
    };
    const auto server_key = [&] {
      return input_selection_poly_mask_server_key(server_key_net, 0, db, indices, field,
                                                  server_sk_, client_sk_, 1, client_prg_,
                                                  server_prg_);
    };
    if (p <= kN) {
      EXPECT_THROW(client_key(), InvalidArgument);
      EXPECT_THROW(server_key(), InvalidArgument);
      EXPECT_EQ(client_key_net.stats().total_bytes(), 0u);
      EXPECT_EQ(server_key_net.stats().total_bytes(), 0u);
      continue;
    }
    for (const SelectedShares& shares : {client_key(), server_key()}) {
      for (std::size_t j = 0; j < indices.size(); ++j) {
        EXPECT_EQ((shares.client_shares[j] + shares.server_shares[j]) % p, db[indices[j]])
            << "p = " << p << ", slot " << j;
      }
    }
  }
}

TEST_F(SingleServerSpfeTest, InputSelectionRoundCounts) {
  constexpr std::size_t kN = 32;
  const std::uint64_t p = field::smallest_prime_above(1000);
  const auto db = make_db(kN, 1000);
  const std::vector<std::size_t> indices = {3, 7};

  {  // §3.3.1 and §3.3.2v1 are one-round selections.
    net::StarNetwork net(1);
    run_input_selection(net, 0, db, indices, p, SelectionMethod::kPerItem, client_sk_,
                        server_sk_, 1, client_prg_, server_prg_);
    EXPECT_DOUBLE_EQ(net.stats().rounds(), 1.0);
  }
  {
    net::StarNetwork net(1);
    run_input_selection(net, 0, db, indices, p, SelectionMethod::kPolyMaskClientKey, client_sk_,
                        server_sk_, 1, client_prg_, server_prg_);
    EXPECT_DOUBLE_EQ(net.stats().rounds(), 1.0);
  }
  {  // §3.3.2v2: server speaks first -> 1.5 rounds.
    net::StarNetwork net(1);
    run_input_selection(net, 0, db, indices, p, SelectionMethod::kPolyMaskServerKey, client_sk_,
                        server_sk_, 1, client_prg_, server_prg_);
    EXPECT_DOUBLE_EQ(net.stats().rounds(), 1.5);
  }
  {  // §3.3.3: query, answer, blinded return -> 1.5 rounds.
    net::StarNetwork net(1);
    run_input_selection(net, 0, db, indices, p, SelectionMethod::kEncryptedDb, client_sk_,
                        server_sk_, 1, client_prg_, server_prg_);
    EXPECT_DOUBLE_EQ(net.stats().rounds(), 1.5);
  }
}

// ---- Two-phase SPFE (§3.3 + §3.3.4 / Yao) -----------------------------------

TEST_F(SingleServerSpfeTest, TwoPhaseArithSumOfSquares) {
  constexpr std::size_t kN = 48, kM = 3;
  const std::uint64_t p = field::smallest_prime_above(1u << 21);
  const auto db = make_db(kN, 1000);
  const auto circuit = ArithCircuit::sum_and_sum_of_squares(kM, p);
  const std::vector<std::size_t> indices = {2, 21, 40};

  net::StarNetwork net(1);
  const auto out =
      run_two_phase_arith(net, 0, db, indices, circuit, SelectionMethod::kPolyMaskClientKey,
                          client_sk_, server_sk_, 1, client_prg_, server_prg_);
  std::vector<std::uint64_t> xs;
  for (const std::size_t i : indices) xs.push_back(db[i]);
  EXPECT_EQ(out, circuit.eval(xs));
}

TEST_F(SingleServerSpfeTest, TwoPhaseArithAllSelectionMethods) {
  constexpr std::size_t kN = 32;
  const std::uint64_t p = field::smallest_prime_above(1u << 20);
  const auto db = make_db(kN, 500);
  const auto circuit = ArithCircuit::inner_product(1, p);  // x*y of the two items
  const std::vector<std::size_t> indices = {4, 28};
  const std::uint64_t expect = db[4] * db[28] % p;

  for (const SelectionMethod method :
       {SelectionMethod::kPerItem, SelectionMethod::kPolyMaskClientKey,
        SelectionMethod::kPolyMaskServerKey, SelectionMethod::kEncryptedDb}) {
    net::StarNetwork net(1);
    const auto out = run_two_phase_arith(net, 0, db, indices, circuit, method, client_sk_,
                                         server_sk_, 1, client_prg_, server_prg_);
    EXPECT_EQ(out[0], expect) << selection_method_name(method);
  }
}

TEST_F(SingleServerSpfeTest, TwoPhaseBooleanEqualityCount) {
  // f = number of selected items equal to 7 (a frequency-style circuit).
  constexpr std::size_t kN = 32, kBits = 6;
  std::vector<std::uint64_t> db(kN);
  for (std::size_t i = 0; i < kN; ++i) db[i] = i % 10;
  const std::vector<std::size_t> indices = {7, 17, 27, 5};  // values 7, 7, 7, 5

  const auto body = [](circuits::BooleanCircuit& c,
                       const std::vector<circuits::WireBundle>& items) {
    std::vector<circuits::WireId> matches;
    for (const auto& item : items) {
      matches.push_back(circuits::build_eq_const(c, item, 7));
    }
    c.add_outputs(circuits::build_popcount(c, matches));
  };

  const ot::SchnorrGroup group = ot::SchnorrGroup::rfc_like_512();
  for (const SelectionMethod method :
       {SelectionMethod::kPerItem, SelectionMethod::kPolyMaskClientKey,
        SelectionMethod::kEncryptedDb}) {
    net::StarNetwork net(1);
    const auto out = run_two_phase_boolean(net, 0, db, indices, kBits, method, body, client_sk_,
                                           server_sk_, group, 1, client_prg_, server_prg_);
    std::uint64_t count = 0;
    for (std::size_t b = 0; b < out.size(); ++b) {
      if (out[b]) count |= std::uint64_t(1) << b;
    }
    EXPECT_EQ(count, 3u) << selection_method_name(method);
  }
}

TEST_F(SingleServerSpfeTest, GmXorInputSelection) {
  constexpr std::size_t kN = 40, kM = 3, kBits = 10;
  std::vector<std::uint64_t> db(kN);
  for (std::size_t i = 0; i < kN; ++i) db[i] = (i * 91 + 5) % (1u << kBits);
  crypto::Prg gm_prg("gm-keys");
  const he::GmPrivateKey gm_sk = he::gm_keygen(gm_prg, 512);
  net::StarNetwork net(1);
  const std::vector<std::size_t> indices = {0, 20, 39};
  const SelectedXorShares shares = input_selection_encrypted_db_gm(
      net, 0, db, indices, kBits, gm_sk, client_sk_, 2, client_prg_, server_prg_);
  for (std::size_t j = 0; j < kM; ++j) {
    EXPECT_EQ(shares.client_shares[j] ^ shares.server_shares[j], db[indices[j]]) << j;
  }
  EXPECT_DOUBLE_EQ(net.stats().rounds(), 1.5);
  EXPECT_TRUE(net.idle());
}

TEST_F(SingleServerSpfeTest, GmXorSharesAreMasked) {
  constexpr std::size_t kN = 16, kBits = 8;
  std::vector<std::uint64_t> db(kN, 0xA5);
  crypto::Prg gm_prg("gm-mask");
  const he::GmPrivateKey gm_sk = he::gm_keygen(gm_prg, 512);
  net::StarNetwork net(1);
  const SelectedXorShares shares = input_selection_encrypted_db_gm(
      net, 0, db, {1, 2, 3, 4, 5, 6, 7, 8}, kBits, gm_sk, client_sk_, 1, client_prg_,
      server_prg_);
  // With 8 slots of 8 random mask bits each, all-trivial masks are 2^-64.
  std::size_t trivial = 0;
  for (const std::uint64_t b : shares.client_shares) {
    if (b == 0) ++trivial;
  }
  EXPECT_LT(trivial, 8u);
}

TEST_F(SingleServerSpfeTest, TwoPhaseBooleanGmFreeXorReconstruction) {
  // Same equality-count function as the additive path, via GM XOR shares.
  constexpr std::size_t kN = 32, kBits = 6;
  std::vector<std::uint64_t> db(kN);
  for (std::size_t i = 0; i < kN; ++i) db[i] = i % 10;
  const std::vector<std::size_t> indices = {7, 17, 27, 5};  // values 7,7,7,5

  const auto body = [](circuits::BooleanCircuit& c,
                       const std::vector<circuits::WireBundle>& items) {
    std::vector<circuits::WireId> matches;
    for (const auto& item : items) {
      matches.push_back(circuits::build_eq_const(c, item, 7));
    }
    c.add_outputs(circuits::build_popcount(c, matches));
  };

  crypto::Prg gm_prg("gm-two-phase");
  const he::GmPrivateKey gm_sk = he::gm_keygen(gm_prg, 512);
  const ot::SchnorrGroup group = ot::SchnorrGroup::rfc_like_512();
  net::StarNetwork net(1);
  const auto out = run_two_phase_boolean_gm(net, 0, db, indices, kBits, body, gm_sk,
                                            client_sk_, group, 1, client_prg_, server_prg_);
  std::uint64_t count = 0;
  for (std::size_t b = 0; b < out.size(); ++b) {
    if (out[b]) count |= std::uint64_t(1) << b;
  }
  EXPECT_EQ(count, 3u);
}

TEST_F(SingleServerSpfeTest, GmSelectionValidation) {
  crypto::Prg gm_prg("gm-validate");
  const he::GmPrivateKey gm_sk = he::gm_keygen(gm_prg, 256);
  std::vector<std::uint64_t> db(8, 1);
  net::StarNetwork net(1);
  EXPECT_THROW(input_selection_encrypted_db_gm(net, 0, db, {1}, 0, gm_sk, client_sk_, 1,
                                               client_prg_, server_prg_),
               InvalidArgument);
  EXPECT_THROW(input_selection_encrypted_db_gm(net, 0, db, {9}, 4, gm_sk, client_sk_, 1,
                                               client_prg_, server_prg_),
               InvalidArgument);
}

TEST_F(SingleServerSpfeTest, PrivateParameterKeywordCount) {
  // The keyword being counted is itself hidden from the server: it enters
  // the circuit as client-private Yao inputs.
  constexpr std::size_t kN = 32, kBits = 6, kParamBits = 6;
  std::vector<std::uint64_t> db(kN);
  for (std::size_t i = 0; i < kN; ++i) db[i] = i % 10;
  const std::vector<std::size_t> indices = {7, 17, 27, 5};  // values 7,7,7,5

  const auto body = [](circuits::BooleanCircuit& c,
                       const std::vector<circuits::WireBundle>& items,
                       const circuits::WireBundle& param) {
    std::vector<circuits::WireId> matches;
    for (const auto& item : items) {
      matches.push_back(circuits::build_eq(c, item, param));
    }
    c.add_outputs(circuits::build_popcount(c, matches));
  };

  const ot::SchnorrGroup group = ot::SchnorrGroup::rfc_like_512();
  for (const std::uint64_t keyword : {7ull, 5ull, 9ull}) {
    net::StarNetwork net(1);
    const auto out = run_two_phase_boolean_private_param(
        net, 0, db, indices, kBits, SelectionMethod::kPerItem, keyword, kParamBits, body,
        client_sk_, server_sk_, group, 1, client_prg_, server_prg_);
    std::uint64_t count = 0;
    for (std::size_t b = 0; b < out.size(); ++b) {
      if (out[b]) count |= std::uint64_t(1) << b;
    }
    std::uint64_t expect = 0;
    for (const std::size_t i : indices) expect += db[i] == keyword ? 1 : 0;
    EXPECT_EQ(count, expect) << "keyword=" << keyword;
  }
}

TEST_F(SingleServerSpfeTest, PrivateParameterThreshold) {
  // Private threshold: count items strictly above a client-secret bound.
  constexpr std::size_t kN = 24, kBits = 8, kParamBits = 8;
  std::vector<std::uint64_t> db(kN);
  for (std::size_t i = 0; i < kN; ++i) db[i] = i * 10;
  const std::vector<std::size_t> indices = {1, 5, 10, 20};

  const auto body = [](circuits::BooleanCircuit& c,
                       const std::vector<circuits::WireBundle>& items,
                       const circuits::WireBundle& param) {
    std::vector<circuits::WireId> above;
    for (const auto& item : items) {
      above.push_back(circuits::build_less_than(c, param, item));
    }
    c.add_outputs(circuits::build_popcount(c, above));
  };

  const ot::SchnorrGroup group = ot::SchnorrGroup::rfc_like_512();
  net::StarNetwork net(1);
  constexpr std::uint64_t kThreshold = 95;
  const auto out = run_two_phase_boolean_private_param(
      net, 0, db, indices, kBits, SelectionMethod::kPolyMaskClientKey, kThreshold, kParamBits,
      body, client_sk_, server_sk_, group, 1, client_prg_, server_prg_);
  std::uint64_t count = 0;
  for (std::size_t b = 0; b < out.size(); ++b) {
    if (out[b]) count |= std::uint64_t(1) << b;
  }
  std::uint64_t expect = 0;
  for (const std::size_t i : indices) expect += db[i] > kThreshold ? 1 : 0;
  EXPECT_EQ(count, expect);
}

TEST_F(SingleServerSpfeTest, TwoPhaseValidation) {
  const auto db = make_db(16, 100);
  const auto circuit = ArithCircuit::sum(3, 101);
  net::StarNetwork net(1);
  EXPECT_THROW(run_two_phase_arith(net, 0, db, {1, 2}, circuit,
                                   SelectionMethod::kPerItem, client_sk_, server_sk_, 1,
                                   client_prg_, server_prg_),
               InvalidArgument);
}

}  // namespace
}  // namespace spfe::protocols
