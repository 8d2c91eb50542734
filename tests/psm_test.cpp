#include <gtest/gtest.h>

#include <map>

#include "circuits/boolean_circuit.h"
#include "common/error.h"
#include "common/serialize.h"
#include "psm/psm.h"
#include "psm_message.h"

namespace spfe::psm {
namespace {

crypto::Prg::Seed seed_of(const std::string& label) {
  return crypto::Prg(label).fork_seed("test-seed");
}

TEST(SumPsm, ReconstructsSum) {
  const SumPsm psm(4, 1000);
  const auto seed = seed_of("sum-1");
  const std::uint64_t inputs[] = {10, 990, 5, 7};
  std::vector<Bytes> messages;
  for (std::size_t j = 0; j < 4; ++j) {
    messages.push_back(player_message(psm, j, inputs[j], seed));
  }
  EXPECT_EQ(psm.reconstruct(messages, psm.referee_extra(seed)), (10 + 990 + 5 + 7) % 1000u);
}

TEST(SumPsm, MasksSumToZero) {
  const SumPsm psm(5, 97);
  const auto seed = seed_of("sum-2");
  std::uint64_t total = 0;
  for (std::size_t j = 0; j < 5; ++j) total = (total + psm.mask_of(j, seed)) % 97;
  EXPECT_EQ(total, 0u);
}

TEST(SumPsm, SinglePlayer) {
  const SumPsm psm(1, 50);
  const auto seed = seed_of("sum-3");
  EXPECT_EQ(psm.reconstruct({player_message(psm, 0, 42, seed)}, {}), 42u);
}

TEST(SumPsm, MessagesHideInputs) {
  // A single message is uniform: same message distribution for different
  // inputs across seeds.
  const SumPsm psm(3, 11);
  std::map<std::uint64_t, int> dist0, dist7;
  for (int trial = 0; trial < 4400; ++trial) {
    const auto seed = crypto::Prg("hiding" + std::to_string(trial)).fork_seed("s");
    spfe::Reader r0(player_message(psm, 0, 0, seed));
    dist0[r0.u64()]++;
    spfe::Reader r7(player_message(psm, 0, 7, seed));
    dist7[r7.u64()]++;
  }
  for (std::uint64_t v = 0; v < 11; ++v) {
    EXPECT_NEAR(dist0[v], 400, 150) << v;
    EXPECT_NEAR(dist7[v], 400, 150) << v;
  }
}

TEST(SumPsm, Validation) {
  EXPECT_THROW(SumPsm(0, 10), InvalidArgument);
  EXPECT_THROW(SumPsm(3, 1), InvalidArgument);
  const SumPsm psm(2, 10);
  const auto seed = seed_of("v");
  EXPECT_THROW(player_message(psm, 2, 0, seed), InvalidArgument);
  EXPECT_THROW(psm.reconstruct({Bytes{}}, {}), InvalidArgument);
}

class YaoPsmTest : public ::testing::Test {
 protected:
  // f(y0, y1) = (y0 + y1 mod 16 == 9), two 4-bit players.
  YaoPsmTest() : circuit_(8) {
    circuits::WireBundle a, b;
    for (std::size_t i = 0; i < 4; ++i) a.push_back(circuit_.input(i));
    for (std::size_t i = 0; i < 4; ++i) b.push_back(circuit_.input(4 + i));
    const auto sum = circuits::build_add_mod(circuit_, a, b);
    circuit_.add_output(circuits::build_eq_const(circuit_, sum, 9));
  }

  circuits::BooleanCircuit circuit_;
};

TEST_F(YaoPsmTest, ReconstructsFunctionValue) {
  const YaoPsm psm(circuit_, 2, 4);
  for (std::uint64_t y0 = 0; y0 < 16; y0 += 3) {
    for (std::uint64_t y1 = 0; y1 < 16; y1 += 5) {
      const auto seed = seed_of("yao" + std::to_string(y0 * 16 + y1));
      const std::vector<Bytes> msgs = {player_message(psm, 0, y0, seed),
                                       player_message(psm, 1, y1, seed)};
      const auto out = psm.reconstruct(msgs, psm.referee_extra(seed));
      ASSERT_EQ(out.size(), 1u);
      EXPECT_EQ(out[0], (y0 + y1) % 16 == 9) << y0 << "," << y1;
    }
  }
}

TEST_F(YaoPsmTest, MessageSizesMatchAlpha) {
  const YaoPsm psm(circuit_, 2, 4);
  const auto seed = seed_of("alpha");
  EXPECT_EQ(player_message(psm, 0, 5, seed).size(), psm.message_bytes());
  EXPECT_EQ(psm.message_bytes(), 4 * 16u);  // bits * label bytes
}

TEST_F(YaoPsmTest, Validation) {
  EXPECT_THROW(YaoPsm(circuit_, 3, 4), InvalidArgument);  // 3*4 != 8
  EXPECT_THROW(YaoPsm(circuit_, 2, 0), InvalidArgument);
  const YaoPsm psm(circuit_, 2, 4);
  const auto seed = seed_of("v2");
  EXPECT_THROW(player_message(psm, 2, 0, seed), InvalidArgument);
}

}  // namespace
}  // namespace spfe::psm
