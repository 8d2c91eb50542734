// Seeded fault-schedule fuzz sweep over the robust multi-server protocols
// (ctest label: fault-fuzz), run over a zero-latency SimStarNetwork.
//
// For every (e, c) budget in {0,1,2}^2 the client is provisioned with
// k = d + 1 + 2e + c servers, told `byzantine_budget = e`, and run against
// many random `FaultPlan`s with <= e Byzantine and <= c unavailable
// servers: the result must equal the honest output exactly and the network
// must drain back to idle. Plans beyond the budget must yield either the
// exact honest output (when enough corruptions happen to be *detected*,
// which makes them cheap erasures) or a typed RobustProtocolError — never a
// wrong value, never a foreign exception, never a hang. Two handcrafted
// regression cells pin the decode-quorum rule at its boundary, and a
// zero-fault run must be byte-identical to the plain `run()` transcript.
#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "circuits/formula.h"
#include "crypto/prg.h"
#include "field/fp64.h"
#include "net/fault.h"
#include "net/robust.h"
#include "net/sim.h"
#include "pir/itpir.h"
#include "recording_net.h"
#include "spfe/multiserver.h"

namespace {

using spfe::crypto::Prg;
using spfe::field::Fp64;
using spfe::testnet::RecordingNet;
using namespace spfe::net;

// One protocol family at a fixed degree d; `run` builds a k-server instance
// and drives it robustly over `net`.
struct ProtocolCase {
  std::string name;
  std::size_t degree;
  std::function<RobustResult(std::size_t k, SimStarNetwork& net, Prg& prg,
                             const RobustConfig& rc)>
      run;
  std::uint64_t expected;
};

std::vector<std::uint64_t> test_database(std::size_t n, bool bits) {
  std::vector<std::uint64_t> db(n);
  for (std::size_t i = 0; i < n; ++i) db[i] = bits ? (i * 7 + 1) % 2 : i * i + 3;
  return db;
}

std::vector<ProtocolCase> protocol_cases() {
  const Fp64 field(Fp64::kMersenne61);
  std::vector<ProtocolCase> cases;

  {
    // Sum SPFE: n = 64 (l = 6), t = 1, d = l*t = 6.
    const auto db = test_database(64, /*bits=*/false);
    const std::vector<std::size_t> indices = {5, 41};
    const std::uint64_t expected = field.add(db[5], db[41]);
    cases.push_back({"sum-spfe", 6,
                     [field, db, indices](std::size_t k, SimStarNetwork& net, Prg& prg,
                                          const RobustConfig& rc) {
                       const spfe::protocols::MultiServerSumSpfe proto(field, 64, 2, k, 1);
                       const auto seed = prg.fork_seed("spir");
                       return proto.run_robust(net, db, indices, seed, prg, rc);
                     },
                     expected});
  }
  {
    // Formula SPFE: phi = x0 & x1, n = 16 (l = 4), t = 1, d = 2*l = 8.
    const auto db = test_database(16, /*bits=*/true);
    const std::vector<std::size_t> indices = {3, 8};
    const std::uint64_t expected = db[3] & db[8];
    cases.push_back({"formula-spfe", 8,
                     [field, db, indices](std::size_t k, SimStarNetwork& net, Prg& prg,
                                          const RobustConfig& rc) {
                       const spfe::protocols::MultiServerFormulaSpfe proto(
                           field, spfe::circuits::Formula::parse("x0 & x1"), 16, k, 1);
                       const auto seed = prg.fork_seed("spir");
                       return proto.run_robust(net, db, indices, seed, prg, rc);
                     },
                     expected});
  }
  {
    // Polynomial itPIR/SPIR: n = 64 (l = 6), t = 1, d = 6.
    const auto db = test_database(64, /*bits=*/false);
    const std::size_t index = 23;
    cases.push_back({"poly-itpir", 6,
                     [field, db, index](std::size_t k, SimStarNetwork& net, Prg& prg,
                                        const RobustConfig& rc) {
                       const spfe::pir::PolyItPir proto(field, 64, k, 1);
                       const auto seed = prg.fork_seed("spir");
                       return proto.run_robust(net, db, index, seed, prg, rc);
                     },
                     db[index]});
  }
  return cases;
}

class FaultFuzzTest : public ::testing::TestWithParam<const char*> {};

// Every plan within the provisioned e/c budget must decode to the exact
// honest value and leave the network drained — including plans whose
// Byzantine servers get caught (a malformed answer or a rejected query),
// which leave fewer than d + 1 + 2e usable answers.
TEST_P(FaultFuzzTest, WithinBudgetAlwaysExact) {
  Prg meta(std::string("within-") + GetParam());
  for (const ProtocolCase& pc : protocol_cases()) {
    for (std::size_t e = 0; e <= 2; ++e) {
      for (std::size_t c = 0; c <= 2; ++c) {
        const std::size_t k = pc.degree + 1 + 2 * e + c;
        for (std::size_t rep = 0; rep < 12; ++rep) {
          const std::string label = pc.name + "-" + std::to_string(e) + "-" + std::to_string(c) +
                                    "-" + std::to_string(rep);
          Prg plan_prg = meta.fork("plan-" + label);
          SimStarNetwork net(k, SimConfig{}, FaultPlan::random(plan_prg, k, e, c));
          Prg proto_prg = meta.fork("proto-" + label);
          RobustConfig rc;
          rc.byzantine_budget = e;
          RobustResult res;
          try {
            res = pc.run(k, net, proto_prg, rc);
          } catch (const spfe::Error& err) {
            FAIL() << label << ": within-budget plan failed: " << err.what();
          }
          EXPECT_EQ(res.value, pc.expected) << label;
          EXPECT_TRUE(res.report.success) << label;
          EXPECT_EQ(res.report.servers, k) << label;
          EXPECT_TRUE(net.idle()) << label;
        }
      }
    }
  }
}

// Plans beyond the budget: either the faults happened to be detectable
// enough to still decode (then the value must be the exact honest one), or
// the run ends in RobustProtocolError. Never a silently wrong value, never
// a non-spfe exception, never a hang.
TEST_P(FaultFuzzTest, BeyondBudgetNeverWrong) {
  Prg meta(std::string("beyond-") + GetParam());
  struct Overload {
    std::size_t prov_e, prov_c;  // provisioned budget
    std::size_t inj_b, inj_u;    // injected byzantine / unavailable servers
  };
  // Crash overloads are deterministic failures. Byzantine overloads are
  // chosen so that no erasure/silent-lie split leaves exactly d+1 survivors
  // with a liar among them: d+1 points are always consistent, so such a lie
  // is undetectable by ANY decoder (coding-theory bound, see DESIGN.md) —
  // it is excluded here by keeping inj_b + inj_u <= k - d - 1 while
  // 2*inj_b + inj_u still blows the unit budget.
  const std::vector<Overload> overloads = {
      {0, 0, 0, 1},  // crash with zero redundancy
      {0, 1, 0, 2},  // more crashes than provisioned
      {1, 0, 2, 0},  // more liars than provisioned
      {1, 1, 2, 1},  // both fault types, beyond the unit budget
  };
  for (const ProtocolCase& pc : protocol_cases()) {
    for (const Overload& ov : overloads) {
      const std::size_t k = pc.degree + 1 + 2 * ov.prov_e + ov.prov_c;
      for (std::size_t rep = 0; rep < 6; ++rep) {
        const std::string label = pc.name + "-ov" + std::to_string(ov.inj_b) +
                                  std::to_string(ov.inj_u) + "-" + std::to_string(rep);
        Prg plan_prg = meta.fork("plan-" + label);
        SimStarNetwork net(k, SimConfig{}, FaultPlan::random(plan_prg, k, ov.inj_b, ov.inj_u));
        Prg proto_prg = meta.fork("proto-" + label);
        RobustConfig rc;
        rc.byzantine_budget = ov.prov_e;
        try {
          const RobustResult res = pc.run(k, net, proto_prg, rc);
          EXPECT_EQ(res.value, pc.expected) << label << ": decoded a wrong value";
        } catch (const RobustProtocolError& err) {
          EXPECT_FALSE(err.report().success) << label;
          EXPECT_GE(err.report().attempts, 1u) << label;
          EXPECT_FALSE(err.report().failure_reason.empty()) << label;
        }
        // Anything else (foreign exception type) propagates and fails.
        EXPECT_TRUE(net.idle()) << label;
      }
    }
  }
}

// Handcrafted overwhelm: every server crashes before answering. The run
// must fail with a full diagnostic after exactly max_attempts tries.
TEST_P(FaultFuzzTest, TotalCrashGivesDiagnosticReport) {
  for (const ProtocolCase& pc : protocol_cases()) {
    const std::size_t k = pc.degree + 1 + 2 + 1;  // e = 1, c = 1
    FaultPlan plan;
    for (std::size_t s = 0; s < k; ++s) plan.crash_after(s, 1);  // die after the query
    SimStarNetwork net(k, SimConfig{}, plan);
    Prg prg(std::string("overwhelm-") + GetParam());
    try {
      pc.run(k, net, prg, RobustConfig{});
      FAIL() << pc.name << ": total crash must not decode";
    } catch (const RobustProtocolError& err) {
      const RobustnessReport& rep = err.report();
      EXPECT_FALSE(rep.success);
      EXPECT_EQ(rep.attempts, RobustConfig{}.max_attempts);
      EXPECT_EQ(rep.servers, k);
      EXPECT_EQ(rep.verdicts.size(), k);
      for (const ServerReport& v : rep.verdicts) {
        EXPECT_EQ(v.fate, ServerFate::kUnavailable) << pc.name;
      }
      EXPECT_NE(std::string(err.what()).find("unavailable"), std::string::npos);
    }
    EXPECT_TRUE(net.idle()) << pc.name;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FaultFuzzTest,
                         ::testing::Values("fuzz-seed-1", "fuzz-seed-2", "fuzz-seed-3"));

// ---------------------------------------------------------------------------
// Decode-quorum regression cells: PolyItPir, n = 64, t = 1 (d = 6),
// byzantine_budget = the provisioned e.

// Crashes beyond the budget plus one lie within it (k = 9: e = 1, c = 0).
// Two crashes leave exactly d + 1 answers with the lie among them, and any
// d + 1 points interpolate, so a decode at the bare quorum is silently
// wrong. The quorum stays at d + 1 + 2e: a typed error, never a value.
TEST(FaultFuzzRegressionTest, CrashesOverBudgetWithOneLieFailClosed) {
  const Fp64 field(Fp64::kMersenne61);
  const auto db = test_database(64, /*bits=*/false);
  const std::size_t k = provisioned_servers(6, 1, 0);
  const spfe::pir::PolyItPir pir(field, 64, k, 1);
  RobustConfig rc;
  rc.byzantine_budget = 1;
  FaultPlan plan;
  plan.crash_after(0, 1);
  plan.crash_after(1, 1);
  for (std::size_t r = 0; r < rc.max_attempts; ++r) {
    plan.add(Direction::kServerToClient, 2, r, Fault{FaultKind::kCorruptByte, 1, 0x5a, 0});
  }
  for (std::size_t i = 0; i < 50; ++i) {
    const std::string label = "probe-" + std::to_string(i);
    const std::size_t index = (i * 13 + 5) % 64;
    SimStarNetwork net(k, SimConfig{}, plan);
    Prg prg(label);
    const auto seed = prg.fork_seed("spir");
    try {
      const RobustResult res = pir.run_robust(net, db, index, seed, prg, rc);
      ADD_FAILURE() << label << ": returned " << res.value << " (honest " << db[index]
                    << ") from d + 1 answers with a lie among them";
    } catch (const RobustProtocolError& err) {
      EXPECT_EQ(err.report().attempts, rc.max_attempts) << label;
      EXPECT_NE(err.report().failure_reason.find("quorum needs 9"), std::string::npos)
          << label << ": " << err.report().failure_reason;
    }
    EXPECT_TRUE(net.idle()) << label;
  }
}

// A caught liar is an erasure and costs one point (k = 10: e = c = 1).
// Server 3 truncates every answer and server 5 is dead on arrival, leaving
// d + 2 usable answers. Charged two points, the caught liar would hold the
// quorum at d + 1 + 2e and fail closed; as an erasure it lowers the quorum
// to d + 1, and attempt 1 decodes.
TEST(FaultFuzzRegressionTest, CaughtLiarCostsOnePoint) {
  const Fp64 field(Fp64::kMersenne61);
  const auto db = test_database(64, /*bits=*/false);
  const std::size_t k = provisioned_servers(6, 1, 1);
  const spfe::pir::PolyItPir pir(field, 64, k, 1);
  RobustConfig rc;
  rc.byzantine_budget = 1;
  FaultPlan plan;
  for (std::size_t r = 0; r < rc.max_attempts; ++r) {
    plan.add(Direction::kServerToClient, 3, r, Fault{FaultKind::kTruncate, 0, 0x01, 3});
  }
  plan.crash_after(5, 0);
  for (std::size_t i = 0; i < 20; ++i) {
    const std::string label = "caught-liar-" + std::to_string(i);
    const std::size_t index = (i * 29 + 3) % 64;
    SimStarNetwork net(k, SimConfig{}, plan);
    Prg prg(label);
    const auto seed = prg.fork_seed("spir");
    RobustResult res;
    try {
      res = pir.run_robust(net, db, index, seed, prg, rc);
    } catch (const RobustProtocolError& err) {
      FAIL() << label << ": within-budget plan failed: " << err.what();
    }
    EXPECT_EQ(res.value, db[index]) << label;
    EXPECT_EQ(res.report.attempts, 1u) << label;
    EXPECT_EQ(res.report.erasures, 2u) << label;
    EXPECT_EQ(res.report.verdicts[3].fate, ServerFate::kMalformed) << label;
    EXPECT_EQ(res.report.verdicts[3].blame, Blame::kByzantine) << label;
    EXPECT_EQ(res.report.verdicts[5].fate, ServerFate::kUnavailable) << label;
    EXPECT_TRUE(net.idle()) << label;
  }
}

// ---------------------------------------------------------------------------
// Zero-fault transcript equivalence: run_robust over a fault-free
// zero-latency SimStarNetwork must be byte-identical to the plain run() —
// same values, same metering, same per-channel message bytes in the same
// order.

TEST(ZeroFaultTranscriptTest, RobustRunMatchesPlainRunByteForByte) {
  const Fp64 field(Fp64::kMersenne61);
  const auto db = test_database(64, /*bits=*/false);
  const std::vector<std::size_t> indices = {5, 41};
  const spfe::protocols::MultiServerSumSpfe proto(field, 64, 2, /*num_servers=*/7, 1);

  RecordingNet<StarNetwork> plain_net(proto.num_servers());
  Prg plain_prg("zero-fault-transcript");
  const auto plain_seed = plain_prg.fork_seed("spir");
  const std::uint64_t plain_value = proto.run(plain_net, db, indices, plain_seed, plain_prg);

  RecordingNet<SimStarNetwork> robust_net(proto.num_servers(), SimConfig{});
  Prg robust_prg("zero-fault-transcript");
  const auto robust_seed = robust_prg.fork_seed("spir");
  const RobustResult res = proto.run_robust(robust_net, db, indices, robust_seed, robust_prg);

  EXPECT_EQ(res.value, plain_value);
  EXPECT_TRUE(res.report.success);
  EXPECT_EQ(res.report.attempts, 1u);
  EXPECT_EQ(res.report.erasures, 0u);
  EXPECT_EQ(res.report.errors_corrected, 0u);

  // Metering identical.
  EXPECT_EQ(plain_net.stats().client_to_server_bytes, robust_net.stats().client_to_server_bytes);
  EXPECT_EQ(plain_net.stats().server_to_client_bytes, robust_net.stats().server_to_client_bytes);
  EXPECT_EQ(plain_net.stats().client_to_server_messages,
            robust_net.stats().client_to_server_messages);
  EXPECT_EQ(plain_net.stats().server_to_client_messages,
            robust_net.stats().server_to_client_messages);
  EXPECT_EQ(plain_net.stats().half_rounds, robust_net.stats().half_rounds);

  // Transcript identical, message by message.
  EXPECT_EQ(plain_net.log, robust_net.log);
}

TEST(ZeroFaultTranscriptTest, ItPirRobustRunMatchesPlainRun) {
  const Fp64 field(Fp64::kMersenne61);
  const auto db = test_database(64, /*bits=*/false);
  const spfe::pir::PolyItPir proto(field, 64, 7, 1);

  RecordingNet<StarNetwork> plain_net(7);
  Prg plain_prg("itpir-zero-fault");
  const auto plain_seed = plain_prg.fork_seed("spir");
  const std::uint64_t plain_value = proto.run(plain_net, db, 23, plain_seed, plain_prg);
  EXPECT_EQ(plain_value, db[23]);

  RecordingNet<SimStarNetwork> robust_net(7, SimConfig{});
  Prg robust_prg("itpir-zero-fault");
  const auto robust_seed = robust_prg.fork_seed("spir");
  const RobustResult res = proto.run_robust(robust_net, db, 23, robust_seed, robust_prg);

  EXPECT_EQ(res.value, plain_value);
  EXPECT_EQ(plain_net.log, robust_net.log);
  EXPECT_EQ(plain_net.stats().half_rounds, robust_net.stats().half_rounds);
  EXPECT_EQ(plain_net.stats().total_bytes(), robust_net.stats().total_bytes());
}

}  // namespace
