// Transcript pins for the §3.2 PSM-SPFE exchanges and the §3.3 Boolean
// two-phase path. At fixed seeds and 512-bit keys:
//   - the single-server PSM-SPFE runs and the Boolean runs must send exactly
//     the recorded bytes (SHA-256 over the send log, both directions);
//   - the k-server PSM-SPFE runs must keep their byte, message and round
//     counts and their outputs (their SPIR mask values are not pinned).
// A refactor of these paths that claims no transcript change must leave
// every value here as it is.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "circuits/formula.h"
#include "common/serialize.h"
#include "crypto/sha256.h"
#include "obs/obs.h"
#include "recording_net.h"
#include "spfe/psm_spfe.h"
#include "spfe/two_phase.h"

namespace spfe::protocols {
namespace {

using testnet::RecordingNet;

// SHA-256 over the send log: each entry as u64 endpoint, then the
// length-prefixed message.
std::string log_digest(const std::vector<std::pair<std::size_t, Bytes>>& log) {
  Writer w;
  for (const auto& [endpoint, message] : log) {
    w.u64(endpoint);
    w.bytes(message);
  }
  return hex_encode(crypto::Sha256::hash_bytes(w.data()));
}

struct KServerPin {
  std::uint64_t bytes_up;
  std::uint64_t bytes_down;
  std::uint64_t msgs;
  std::uint64_t half_rounds;
};

void expect_stats(const net::CommStats& s, const KServerPin& want) {
  EXPECT_EQ(s.client_to_server_bytes, want.bytes_up);
  EXPECT_EQ(s.server_to_client_bytes, want.bytes_down);
  EXPECT_EQ(s.client_to_server_messages + s.server_to_client_messages, want.msgs);
  EXPECT_EQ(s.half_rounds, want.half_rounds);
}

class TranscriptPinTest : public ::testing::Test {
 protected:
  TranscriptPinTest()
      : client_prg_("pin-client"),
        server_prg_("pin-server"),
        client_sk_(he::paillier_keygen(client_prg_, 512)),
        server_sk_(he::paillier_keygen(server_prg_, 512)) {}

  crypto::Prg client_prg_, server_prg_;
  he::PaillierPrivateKey client_sk_;
  he::PaillierPrivateKey server_sk_;
};

std::vector<std::uint64_t> pin_db(std::size_t n, std::uint64_t modulus) {
  std::vector<std::uint64_t> db(n);
  for (std::size_t i = 0; i < n; ++i) db[i] = (i * 37 + 11) % modulus;
  return db;
}

// f = (x_a + x_b >= 16) on 4-bit items: a 4-bit adder's carry.
circuits::BooleanCircuit carry_circuit() {
  circuits::BooleanCircuit circuit(8);
  circuits::WireBundle a, b;
  for (std::size_t i = 0; i < 4; ++i) a.push_back(circuit.input(i));
  for (std::size_t i = 0; i < 4; ++i) b.push_back(circuit.input(4 + i));
  circuit.add_output(circuits::build_add(circuit, a, b).back());
  return circuit;
}

// ---- §3.2 PSM-SPFE ------------------------------------------------------------

TEST_F(TranscriptPinTest, PsmSumSingleServerTranscript) {
  const auto db = pin_db(40, 1000);
  const PsmSumSpfeSingleServer proto(client_sk_.public_key(), 40, 3, 1000, 2);
  RecordingNet<net::StarNetwork> net(1);
  EXPECT_EQ(proto.run(net, db, {5, 17, 39}, client_sk_, client_prg_, server_prg_),
            (db[5] + db[17] + db[39]) % 1000);
  EXPECT_EQ(log_digest(net.log),
            "c38d3d0f2b25e5218f07fde678e815e1edc432ebfd22ac8aaed468d231ee1d40");
}

TEST_F(TranscriptPinTest, PsmYaoSingleServerTranscript) {
  std::vector<std::uint64_t> db(25);
  for (std::size_t i = 0; i < db.size(); ++i) db[i] = i % 16;
  const circuits::BooleanCircuit circuit = carry_circuit();
  const PsmYaoSpfeSingleServer proto(client_sk_.public_key(), circuit, 25, 2, 4, 1);
  RecordingNet<net::StarNetwork> net(1);
  const auto out = proto.run(net, db, {9, 8}, client_sk_, client_prg_, server_prg_);
  EXPECT_EQ(out, std::vector<bool>{true});
  EXPECT_EQ(log_digest(net.log),
            "e5f6890848c6acee0c135b2b76542d47e395996d03edfb347b71154f2df3c3da");
}

TEST_F(TranscriptPinTest, PsmBpSingleServerTranscript) {
  std::vector<std::uint64_t> db(16);
  for (std::size_t i = 0; i < db.size(); ++i) db[i] = i & 1;
  const PsmBpSpfeSingleServer proto(
      client_sk_.public_key(),
      circuits::BranchingProgram::from_formula(circuits::Formula::parse("x0 | x1")), 16, 1);
  RecordingNet<net::StarNetwork> net(1);
  EXPECT_TRUE(proto.run(net, db, {2, 7}, client_sk_, client_prg_, server_prg_));
  EXPECT_EQ(log_digest(net.log),
            "3e667c478e8b29cb76731889c2f3c5b695f34b8456b277c9810b159c5e9a3e06");
}

TEST_F(TranscriptPinTest, PsmSumMultiServerCounts) {
  const field::Fp64 field(field::Fp64::kMersenne61);
  const std::size_t k = pir::PolyItPir::min_servers(32, 1);
  const auto db = pin_db(32, 5000);
  const PsmSumSpfeMultiServer proto(field, 32, 3, 5000, k, 1);
  net::StarNetwork net(k);
  EXPECT_EQ(proto.run(net, db, {0, 15, 31}, client_prg_, server_prg_), 1735u);
  expect_stats(net.stats(), {738, 163, 12, 2});
}

TEST_F(TranscriptPinTest, PsmBpMultiServerCounts) {
  std::vector<std::uint64_t> db(32);
  for (std::size_t i = 0; i < db.size(); ++i) db[i] = (i * 29 + 3) % 256;
  const field::Fp64 field(field::Fp64::kMersenne61);
  const std::size_t k = pir::PolyItPir::min_servers(32, 1);
  // An 8-bit comparison: dim-8 matrices, two 7-byte chunks per message.
  const PsmBpSpfeMultiServer proto(field, circuits::BranchingProgram::equals_constant(8, 90),
                                   32, k, 1);
  net::StarNetwork net(k);
  EXPECT_TRUE(proto.run(net, db, {3}, client_prg_, server_prg_));  // db[3] == 90
  expect_stats(net.stats(), {492, 117, 12, 2});
}

// Every §3.2 run opens exactly one psm.* span: psm.single_server over cPIR,
// psm.multi_server over itPIR.
TEST_F(TranscriptPinTest, EveryPsmSpfeRunOpensOnePsmSpan) {
  obs::Tracer& tracer = obs::Tracer::global();
  tracer.set_enabled(true);
  tracer.reset();
  const auto psm_spans = [&tracer] {
    std::vector<std::string> names;
    for (const obs::SpanRecord& s : tracer.spans()) {
      if (s.name.rfind("psm.", 0) == 0) names.push_back(s.name);
    }
    tracer.reset();
    return names;
  };
  const std::vector<std::string> one_server = {"psm.single_server"};
  const std::vector<std::string> k_server = {"psm.multi_server"};
  const auto db = pin_db(16, 16);
  const auto bp = circuits::BranchingProgram::equals_constant(4, db[2]);
  const field::Fp64 field(field::Fp64::kMersenne61);
  const std::size_t k = pir::PolyItPir::min_servers(16, 1);
  {
    net::StarNetwork net(1);
    PsmSumSpfeSingleServer(client_sk_.public_key(), 16, 2, 16, 1)
        .run(net, db, {1, 2}, client_sk_, client_prg_, server_prg_);
    EXPECT_EQ(psm_spans(), one_server) << "sum";
  }
  {
    const circuits::BooleanCircuit circuit = carry_circuit();
    net::StarNetwork net(1);
    PsmYaoSpfeSingleServer(client_sk_.public_key(), circuit, 16, 2, 4, 1)
        .run(net, db, {1, 2}, client_sk_, client_prg_, server_prg_);
    EXPECT_EQ(psm_spans(), one_server) << "yao";
  }
  {
    net::StarNetwork net(1);
    EXPECT_TRUE(PsmBpSpfeSingleServer(client_sk_.public_key(), bp, 16, 1)
                    .run(net, db, {2}, client_sk_, client_prg_, server_prg_));
    EXPECT_EQ(psm_spans(), one_server) << "bp";
  }
  {
    net::StarNetwork net(k);
    PsmSumSpfeMultiServer(field, 16, 2, 16, k, 1).run(net, db, {1, 2}, client_prg_,
                                                      server_prg_);
    EXPECT_EQ(psm_spans(), k_server) << "sum k-server";
  }
  {
    net::StarNetwork net(k);
    EXPECT_TRUE(PsmBpSpfeMultiServer(field, bp, 16, k, 1).run(net, db, {2}, client_prg_,
                                                              server_prg_));
    EXPECT_EQ(psm_spans(), k_server) << "bp k-server";
  }
  tracer.set_enabled(false);
}

// ---- §3.3 Boolean two-phase -----------------------------------------------------

// Number of selected items equal to 7.
void count_sevens(circuits::BooleanCircuit& c, const std::vector<circuits::WireBundle>& items) {
  std::vector<circuits::WireId> matches;
  for (const auto& item : items) matches.push_back(circuits::build_eq_const(c, item, 7));
  c.add_outputs(circuits::build_popcount(c, matches));
}

std::uint64_t as_number(const std::vector<bool>& bits) {
  std::uint64_t v = 0;
  for (std::size_t b = 0; b < bits.size(); ++b) {
    if (bits[b]) v |= std::uint64_t(1) << b;
  }
  return v;
}

class BooleanPinTest : public TranscriptPinTest {
 protected:
  BooleanPinTest() : db_(32) {
    for (std::size_t i = 0; i < db_.size(); ++i) db_[i] = i % 10;
  }

  // The selected values are 7, 7, 7, 5.
  const std::vector<std::size_t> indices_ = {7, 17, 27, 5};
  const ot::SchnorrGroup group_ = ot::SchnorrGroup::rfc_like_512();
  std::vector<std::uint64_t> db_;

  std::string run_method(SelectionMethod method) {
    RecordingNet<net::StarNetwork> net(1);
    const auto out = run_two_phase_boolean(net, 0, db_, indices_, 6, method, count_sevens,
                                           client_sk_, server_sk_, group_, 1, client_prg_,
                                           server_prg_);
    EXPECT_EQ(as_number(out), 3u) << selection_method_name(method);
    return log_digest(net.log);
  }
};

TEST_F(BooleanPinTest, PerItemTranscript) {
  EXPECT_EQ(run_method(SelectionMethod::kPerItem),
            "3172a01e7fc8b845621061cb05749c983c24f1ef2d64571da10e62138a41c9af");
}

TEST_F(BooleanPinTest, PolyMaskClientKeyTranscript) {
  EXPECT_EQ(run_method(SelectionMethod::kPolyMaskClientKey),
            "1190cb7c3955e5e287f1ec9981dc0e1240b9e42e3b15660276a54802209a640a");
}

TEST_F(BooleanPinTest, PolyMaskServerKeyTranscript) {
  EXPECT_EQ(run_method(SelectionMethod::kPolyMaskServerKey),
            "e5675332286dff5ad937d7b998dad5cd75a4beb7d25ae3d2a8b8d57d7242c5c2");
}

TEST_F(BooleanPinTest, EncryptedDbTranscript) {
  EXPECT_EQ(run_method(SelectionMethod::kEncryptedDb),
            "cce4e34f9b8cf27fd095e7206774c64cc7cdb1ffb4bf6c327c324c5366a78e0d");
}

TEST_F(BooleanPinTest, PrivateParamTranscript) {
  const auto body = [](circuits::BooleanCircuit& c,
                       const std::vector<circuits::WireBundle>& items,
                       const circuits::WireBundle& param) {
    std::vector<circuits::WireId> matches;
    for (const auto& item : items) matches.push_back(circuits::build_eq(c, item, param));
    c.add_outputs(circuits::build_popcount(c, matches));
  };
  RecordingNet<net::StarNetwork> net(1);
  const auto out = run_two_phase_boolean_private_param(
      net, 0, db_, indices_, 6, SelectionMethod::kPolyMaskClientKey, 5, 6, body, client_sk_,
      server_sk_, group_, 1, client_prg_, server_prg_);
  EXPECT_EQ(as_number(out), 1u);
  EXPECT_EQ(log_digest(net.log),
            "68ca45e36ceb9a4738d678987a0909663f5c29d86fea53c8ca3540c4b63ab40a");
}

TEST_F(BooleanPinTest, GmTranscript) {
  crypto::Prg gm_prg("pin-gm");
  const he::GmPrivateKey gm_sk = he::gm_keygen(gm_prg, 512);
  RecordingNet<net::StarNetwork> net(1);
  const auto out = run_two_phase_boolean_gm(net, 0, db_, indices_, 6, count_sevens, gm_sk,
                                            client_sk_, group_, 1, client_prg_, server_prg_);
  EXPECT_EQ(as_number(out), 3u);
  EXPECT_EQ(log_digest(net.log),
            "cd32280cd8228d354f79be17294264774124035a8ee991b29150e3c388a03eef");
}

}  // namespace
}  // namespace spfe::protocols
