#include <gtest/gtest.h>

#include "circuits/arith_circuit.h"
#include "circuits/boolean_circuit.h"
#include "common/error.h"
#include "he/paillier.h"
#include "mpc/arith_protocol.h"
#include "mpc/yao.h"
#include "mpc/yao_protocol.h"
#include "net/network.h"
#include "ot/group.h"

namespace spfe::mpc {
namespace {

using circuits::ArithCircuit;
using circuits::BooleanCircuit;
using circuits::WireBundle;
using circuits::WireId;

std::vector<bool> to_bits(std::uint64_t v, std::size_t width) {
  std::vector<bool> bits(width);
  for (std::size_t i = 0; i < width; ++i) bits[i] = ((v >> i) & 1) != 0;
  return bits;
}

std::uint64_t from_bits(const std::vector<bool>& bits) {
  std::uint64_t v = 0;
  for (std::size_t i = 0; i < bits.size(); ++i) {
    if (bits[i]) v |= std::uint64_t(1) << i;
  }
  return v;
}

// ---- Garbling (no network) --------------------------------------------------

TEST(YaoGarble, AllGateKindsMatchPlainEval) {
  BooleanCircuit c(2);
  c.add_output(c.xor_gate(0, 1));
  c.add_output(c.and_gate(0, 1));
  c.add_output(c.or_gate(0, 1));
  c.add_output(c.not_gate(0));
  c.add_output(c.const_wire(true));
  c.add_output(c.const_wire(false));

  crypto::Prg prg("garble-gates");
  for (int mask = 0; mask < 4; ++mask) {
    const auto inputs = to_bits(static_cast<std::uint64_t>(mask), 2);
    const GarblingResult g = garble(c, prg);
    std::vector<Label> active;
    for (std::size_t i = 0; i < 2; ++i) active.push_back(g.input_labels[i].get(inputs[i]));
    EXPECT_EQ(evaluate(c, g.garbled, active), c.eval(inputs)) << "mask=" << mask;
  }
}

TEST(YaoGarble, AdderCircuitExhaustive) {
  constexpr std::size_t kW = 4;
  BooleanCircuit c(2 * kW);
  WireBundle a, b;
  for (std::size_t i = 0; i < kW; ++i) a.push_back(c.input(i));
  for (std::size_t i = 0; i < kW; ++i) b.push_back(c.input(kW + i));
  c.add_outputs(circuits::build_add(c, a, b));

  crypto::Prg prg("garble-adder");
  const GarblingResult g = garble(c, prg);
  for (std::uint64_t x = 0; x < 16; ++x) {
    for (std::uint64_t y = 0; y < 16; ++y) {
      std::vector<bool> in = to_bits(x, kW);
      const auto yb = to_bits(y, kW);
      in.insert(in.end(), yb.begin(), yb.end());
      std::vector<Label> active;
      for (std::size_t i = 0; i < in.size(); ++i) active.push_back(g.input_labels[i].get(in[i]));
      EXPECT_EQ(from_bits(evaluate(c, g.garbled, active)), x + y);
    }
  }
}

TEST(YaoGarble, FreeXorProducesNoTables) {
  BooleanCircuit c(2);
  c.add_output(c.xor_gate(0, 1));
  c.add_output(c.not_gate(0));
  crypto::Prg prg("free");
  const GarblingResult g = garble(c, prg);
  EXPECT_TRUE(g.garbled.tables.empty());
}

TEST(YaoGarble, TableCountMatchesNonfreeGates) {
  BooleanCircuit c(3);
  c.and_gate(0, 1);
  c.or_gate(1, 2);
  c.xor_gate(0, 2);
  crypto::Prg prg("tables");
  const GarblingResult g = garble(c, prg);
  EXPECT_EQ(g.garbled.tables.size(), c.nonfree_gate_count());
}

TEST(YaoGarble, SerializationRoundTrip) {
  BooleanCircuit c(2);
  c.add_output(c.and_gate(0, 1));
  c.add_output(c.const_wire(true));
  crypto::Prg prg("ser");
  const GarblingResult g = garble(c, prg);
  const Bytes wire = g.garbled.serialize();
  const GarbledCircuit gc2 = GarbledCircuit::deserialize(wire);
  std::vector<Label> active = {g.input_labels[0].get(true), g.input_labels[1].get(true)};
  EXPECT_EQ(evaluate(c, gc2, active), (std::vector<bool>{true, true}));
}

TEST(YaoGarble, GarblingIsDeterministicGivenSeed) {
  BooleanCircuit c(2);
  c.add_output(c.and_gate(0, 1));
  crypto::Prg p1("same-seed"), p2("same-seed");
  EXPECT_EQ(garble(c, p1).garbled.serialize(), garble(c, p2).garbled.serialize());
}

// ---- Yao over the network ---------------------------------------------------

class YaoProtocolTest : public ::testing::Test {
 protected:
  YaoProtocolTest()
      : group_(ot::SchnorrGroup::rfc_like_512()),
        client_prg_("yao-client"),
        server_prg_("yao-server") {}

  ot::SchnorrGroup group_;
  crypto::Prg client_prg_, server_prg_;
};

TEST_F(YaoProtocolTest, TwoPartyAdditionOneRound) {
  constexpr std::size_t kW = 8;
  BooleanCircuit c(2 * kW);
  WireBundle a, b;
  for (std::size_t i = 0; i < kW; ++i) a.push_back(c.input(i));          // client
  for (std::size_t i = 0; i < kW; ++i) b.push_back(c.input(kW + i));     // server
  c.add_outputs(circuits::build_add_mod(c, a, b));

  net::StarNetwork net(1);
  const auto out = run_yao(net, 0, c, to_bits(0x5a, kW), to_bits(0xc3, kW), group_,
                           client_prg_, server_prg_);
  EXPECT_EQ(from_bits(out), (0x5a + 0xc3) % 256);
  EXPECT_DOUBLE_EQ(net.stats().rounds(), 1.0);
  EXPECT_TRUE(net.idle());
}

TEST_F(YaoProtocolTest, ComparisonCircuit) {
  constexpr std::size_t kW = 6;
  BooleanCircuit c(2 * kW);
  WireBundle a, b;
  for (std::size_t i = 0; i < kW; ++i) a.push_back(c.input(i));
  for (std::size_t i = 0; i < kW; ++i) b.push_back(c.input(kW + i));
  c.add_output(circuits::build_less_than(c, a, b));

  for (const auto& [x, y] : std::vector<std::pair<std::uint64_t, std::uint64_t>>{
           {3, 7}, {7, 3}, {5, 5}, {0, 63}, {63, 0}}) {
    net::StarNetwork net(1);
    const auto out =
        run_yao(net, 0, c, to_bits(x, kW), to_bits(y, kW), group_, client_prg_, server_prg_);
    EXPECT_EQ(out[0], x < y) << x << " vs " << y;
  }
}

TEST_F(YaoProtocolTest, InputSplitValidation) {
  BooleanCircuit c(4);
  c.add_output(c.and_gate(0, 1));
  net::StarNetwork net(1);
  EXPECT_THROW(run_yao(net, 0, c, {true}, {false}, group_, client_prg_, server_prg_),
               InvalidArgument);
}

// ---- §3.3.4 arithmetic MPC --------------------------------------------------

class ArithMpcTest : public ::testing::Test {
 protected:
  ArithMpcTest()
      : client_prg_("arith-client"),
        server_prg_("arith-server"),
        sk_(he::paillier_keygen(client_prg_, 512)) {}

  // Splits inputs into random additive shares mod u.
  void split(const std::vector<std::uint64_t>& xs, std::uint64_t u,
             std::vector<std::uint64_t>& client, std::vector<std::uint64_t>& server) {
    client.clear();
    server.clear();
    for (const std::uint64_t x : xs) {
      const std::uint64_t a = server_prg_.uniform(u);
      server.push_back(a);
      client.push_back((x % u + u - a) % u);
    }
  }

  crypto::Prg client_prg_, server_prg_;
  he::PaillierPrivateKey sk_;
};

TEST_F(ArithMpcTest, SumCircuit) {
  constexpr std::uint64_t kU = 1000003;
  const auto circuit = ArithCircuit::sum(5, kU);
  const std::vector<std::uint64_t> xs = {10, 20, 30, 40, 999999};
  std::vector<std::uint64_t> cs, ss;
  split(xs, kU, cs, ss);

  net::StarNetwork net(1);
  const auto out = run_arith_mpc_shared(net, 0, circuit, sk_, cs, ss, client_prg_, server_prg_);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0], circuit.eval(xs)[0]);
  // No mult gates: one share round + one output round.
  EXPECT_TRUE(net.idle());
}

TEST_F(ArithMpcTest, SumAndSumOfSquares) {
  constexpr std::uint64_t kU = 1 << 20;
  const auto circuit = ArithCircuit::sum_and_sum_of_squares(4, kU);
  const std::vector<std::uint64_t> xs = {100, 200, 300, 400};
  std::vector<std::uint64_t> cs, ss;
  split(xs, kU, cs, ss);

  net::StarNetwork net(1);
  const auto out = run_arith_mpc_shared(net, 0, circuit, sk_, cs, ss, client_prg_, server_prg_);
  const auto expect = circuit.eval(xs);
  EXPECT_EQ(out, expect);
}

TEST_F(ArithMpcTest, DeepMultiplicationChain) {
  // x^8 via 3 levels of squaring exercises multi-round mult batching and
  // bound growth.
  constexpr std::uint64_t kU = 65537;
  ArithCircuit c(1, kU);
  std::uint32_t n = c.input(0);
  for (int i = 0; i < 3; ++i) n = c.mul(n, n);
  c.add_output(n);
  EXPECT_EQ(c.mult_depth(), 3u);

  std::vector<std::uint64_t> cs, ss;
  split({3}, kU, cs, ss);
  net::StarNetwork net(1);
  const auto out = run_arith_mpc_shared(net, 0, c, sk_, cs, ss, client_prg_, server_prg_);
  EXPECT_EQ(out[0], c.eval({3})[0]);  // 3^8 = 6561
  EXPECT_EQ(out[0], 6561u);
}

TEST_F(ArithMpcTest, SubtractionStaysCongruent) {
  constexpr std::uint64_t kU = 101;
  ArithCircuit c(2, kU);
  c.add_output(c.sub(c.input(0), c.input(1)));
  std::vector<std::uint64_t> cs, ss;
  split({5, 77}, kU, cs, ss);
  net::StarNetwork net(1);
  const auto out = run_arith_mpc_shared(net, 0, c, sk_, cs, ss, client_prg_, server_prg_);
  EXPECT_EQ(out[0], (5 + kU - 77) % kU);
}

TEST_F(ArithMpcTest, WeightedSumAndConstants) {
  constexpr std::uint64_t kU = 1 << 16;
  const auto circuit = ArithCircuit::weighted_sum({3, 0, 7}, kU);
  std::vector<std::uint64_t> cs, ss;
  split({11, 22, 33}, kU, cs, ss);
  net::StarNetwork net(1);
  const auto out = run_arith_mpc_shared(net, 0, circuit, sk_, cs, ss, client_prg_, server_prg_);
  EXPECT_EQ(out[0], (3 * 11 + 0 * 22 + 7 * 33) % kU);
}

TEST_F(ArithMpcTest, RoundsScaleWithMultDepth) {
  constexpr std::uint64_t kU = 257;
  // Depth-2: (x0*x1) * x2.
  ArithCircuit c(3, kU);
  c.add_output(c.mul(c.mul(c.input(0), c.input(1)), c.input(2)));
  std::vector<std::uint64_t> cs, ss;
  split({5, 6, 7}, kU, cs, ss);
  net::StarNetwork net(1);
  const auto out = run_arith_mpc_shared(net, 0, c, sk_, cs, ss, client_prg_, server_prg_);
  EXPECT_EQ(out[0], (5 * 6 * 7) % kU);
  // shares C->S | L1 S->C | L1 products C->S | L2 S->C | L2 products C->S |
  // outputs S->C = 6 half-rounds = 3.0 rounds (1 + mult_depth).
  EXPECT_EQ(net.stats().half_rounds, 6u);
  EXPECT_DOUBLE_EQ(net.stats().rounds(), 3.0);
}

TEST_F(ArithMpcTest, TooDeepCircuitThrows) {
  crypto::Prg kg("tiny-key");
  const auto tiny = he::paillier_keygen(kg, 128);
  constexpr std::uint64_t kU = 1u << 20;
  ArithCircuit c(1, kU);
  std::uint32_t n = c.input(0);
  for (int i = 0; i < 10; ++i) n = c.mul(n, n);
  c.add_output(n);
  std::vector<std::uint64_t> cs, ss;
  split({3}, kU, cs, ss);
  net::StarNetwork net(1);
  EXPECT_THROW(run_arith_mpc_shared(net, 0, c, tiny, cs, ss, client_prg_, server_prg_),
               CryptoError);
}

TEST_F(ArithMpcTest, ShareCountValidation) {
  const auto circuit = ArithCircuit::sum(3, 101);
  net::StarNetwork net(1);
  EXPECT_THROW(
      run_arith_mpc_shared(net, 0, circuit, sk_, {1, 2}, {1, 2, 3}, client_prg_, server_prg_),
      InvalidArgument);
}

}  // namespace
}  // namespace spfe::mpc
