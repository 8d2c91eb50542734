// Adversarial-input robustness: every protocol parser must handle
// malformed or truncated wire data by throwing spfe::Error (never crashing,
// hanging, or throwing foreign exception types). Messages are mutated by
// truncation, extension, and random byte flips.
#include <gtest/gtest.h>

#include <functional>

#include "common/error.h"
#include "common/serialize.h"
#include "crypto/prg.h"
#include "field/fp64.h"
#include "he/paillier.h"
#include "mpc/yao.h"
#include "mpc/yao_protocol.h"
#include "net/fault.h"
#include "net/sim.h"
#include "ot/base_ot.h"
#include "pir/batch_pir.h"
#include "pir/cpir.h"
#include "pir/itpir.h"
#include "spfe/multiserver.h"
#include "spfe/stats.h"

namespace spfe {
namespace {

// Applies `handler` to systematically corrupted variants of `valid`.
// The handler may succeed (garbage-in/garbage-out is acceptable for
// semantically — but not syntactically — broken inputs) or throw
// spfe::Error; anything else fails the test.
void fuzz_message(const Bytes& valid, const std::function<void(const Bytes&)>& handler,
                  const std::string& what) {
  crypto::Prg prg("fuzz-" + what);
  std::vector<Bytes> variants;
  variants.push_back({});                                    // empty
  variants.push_back(Bytes(valid.begin(), valid.begin() + static_cast<std::ptrdiff_t>(
                                              valid.size() / 2)));  // truncated
  {
    Bytes extended = valid;
    append(extended, prg.bytes(16));  // trailing junk
    variants.push_back(std::move(extended));
  }
  for (int trial = 0; trial < 30; ++trial) {  // random single/multi byte flips
    Bytes mutated = valid;
    const std::size_t flips = 1 + prg.uniform(4);
    for (std::size_t f = 0; f < flips && !mutated.empty(); ++f) {
      mutated[prg.uniform(mutated.size())] ^= static_cast<std::uint8_t>(1 + prg.uniform(255));
    }
    variants.push_back(std::move(mutated));
  }
  variants.push_back(prg.bytes(valid.size()));  // pure noise

  for (std::size_t v = 0; v < variants.size(); ++v) {
    try {
      handler(variants[v]);
    } catch (const Error&) {
      // Expected failure mode.
    } catch (const std::exception& e) {
      FAIL() << what << " variant " << v << ": foreign exception: " << e.what();
    }
  }
}

TEST(Robustness, PolyItPirServerRejectsMalformedQueries) {
  const field::Fp64 f(field::Fp64::kMersenne61);
  const pir::PolyItPir pir(f, 64, 7, 1);
  std::vector<std::uint64_t> db(64, 5);
  crypto::Prg prg("r1");
  pir::PolyItPir::ClientState state;
  const Bytes valid = pir.make_queries(3, state, prg)[0];
  fuzz_message(valid, [&](const Bytes& q) { (void)pir.answer(0, db, q, nullptr); },
               "itpir-query");
}

TEST(Robustness, PolyItPirClientRejectsMalformedAnswers) {
  const field::Fp64 f(field::Fp64::kMersenne61);
  const pir::PolyItPir pir(f, 64, 7, 1);
  std::vector<std::uint64_t> db(64, 5);
  crypto::Prg prg("r2");
  pir::PolyItPir::ClientState state;
  const auto queries = pir.make_queries(3, state, prg);
  std::vector<Bytes> answers;
  for (std::size_t h = 0; h < 7; ++h) answers.push_back(pir.answer(h, db, queries[h], nullptr));
  fuzz_message(answers[0],
               [&](const Bytes& a) {
                 std::vector<Bytes> mutated = answers;
                 mutated[0] = a;
                 (void)pir.decode(mutated, state);
               },
               "itpir-answer");
}

TEST(Robustness, PaillierPirServerRejectsMalformedQueries) {
  crypto::Prg prg("r3");
  const auto sk = he::paillier_keygen(prg, 256);
  const pir::PaillierPir pir(sk.public_key(), 16, 2);
  std::vector<std::uint64_t> db(16, 9);
  pir::PaillierPir::ClientState state;
  const Bytes valid = pir.make_query(sk, 5, state, prg);
  fuzz_message(valid, [&](const Bytes& q) { (void)pir.answer_u64(db, q, prg); },
               "cpir-query");
}

TEST(Robustness, PaillierPirClientRejectsMalformedAnswers) {
  crypto::Prg prg("r4");
  const auto sk = he::paillier_keygen(prg, 256);
  const pir::PaillierPir pir(sk.public_key(), 16, 2);
  std::vector<std::uint64_t> db(16, 9);
  pir::PaillierPir::ClientState state;
  const Bytes valid = pir.answer_u64(db, pir.make_query(sk, 5, state, prg), prg);
  fuzz_message(valid, [&](const Bytes& a) { (void)pir.decode_u64(sk, a); }, "cpir-answer");
}

TEST(Robustness, CuckooBatchPirServerRejectsMalformedQueries) {
  crypto::Prg prg("r5");
  const auto sk = he::paillier_keygen(prg, 256);
  const pir::CuckooBatchPir pir(sk.public_key(), 50, 3, 1);
  std::vector<std::uint64_t> db(50, 2);
  pir::CuckooBatchPir::ClientState state;
  const Bytes valid = pir.make_query(sk, {1, 2, 3}, state, prg);
  fuzz_message(valid, [&](const Bytes& q) { (void)pir.answer_u64(db, q, prg); },
               "batch-query");
}

TEST(Robustness, BaseOtSenderRejectsMalformedQueries) {
  const ot::BaseOt ot(ot::SchnorrGroup::rfc_like_512());
  crypto::Prg prg("r6");
  std::vector<ot::OtReceiverState> states;
  const Bytes valid = ot.make_query({true, false}, states, prg);
  std::vector<std::pair<Bytes, Bytes>> msgs = {{Bytes(8, 1), Bytes(8, 2)},
                                               {Bytes(8, 3), Bytes(8, 4)}};
  fuzz_message(valid, [&](const Bytes& q) { (void)ot.answer(q, msgs, prg); }, "ot-query");
}

TEST(Robustness, BaseOtReceiverRejectsMalformedAnswers) {
  const ot::BaseOt ot(ot::SchnorrGroup::rfc_like_512());
  crypto::Prg prg("r7");
  std::vector<ot::OtReceiverState> states;
  const Bytes query = ot.make_query({true}, states, prg);
  std::vector<std::pair<Bytes, Bytes>> msgs = {{Bytes(8, 1), Bytes(8, 2)}};
  const Bytes valid = ot.answer(query, msgs, prg);
  fuzz_message(valid, [&](const Bytes& a) { (void)ot.decode(a, states); }, "ot-answer");
}

TEST(Robustness, GarbledCircuitDeserializeRejectsGarbage) {
  circuits::BooleanCircuit c(2);
  c.add_output(c.and_gate(0, 1));
  crypto::Prg prg("r9");
  const Bytes valid = mpc::garble(c, prg).garbled.serialize();
  fuzz_message(valid, [&](const Bytes& b) { (void)mpc::GarbledCircuit::deserialize(b); },
               "gc-bytes");
}

TEST(Robustness, YaoServerRejectsMalformedClientQuery) {
  circuits::BooleanCircuit c(2);
  c.add_output(c.and_gate(0, 1));
  const ot::SchnorrGroup group = ot::SchnorrGroup::rfc_like_512();
  crypto::Prg cprg("r10c"), sprg("r10s");
  mpc::YaoEvaluatorClient client(c, {true}, group);
  const Bytes valid = client.query(cprg);
  fuzz_message(valid,
               [&](const Bytes& q) {
                 mpc::YaoGarblerServer server(c, {false}, group);
                 (void)server.respond(q, sprg);
               },
               "yao-query");
}

TEST(Robustness, TwoServerXorPirRejectsBadQuerySizes) {
  const pir::TwoServerXorPir pir(16, 4);
  std::vector<Bytes> db(16, Bytes(4, 7));
  crypto::Prg prg("r11");
  pir::TwoServerXorPir::ClientState state;
  const auto [q0, q1] = pir.make_queries(3, state, prg);
  fuzz_message(q0, [&](const Bytes& q) { (void)pir.answer(db, q); }, "xor-query");
}

// --- truncation-at-every-offset sweep ---------------------------------------
//
// fuzz_message only tries one truncation point (half the message); an
// adversarial sender can cut the stream anywhere, including mid-varint and
// mid-length-prefix. Every prefix of a valid message must be rejected with a
// typed spfe::Error (or, for self-delimiting formats, parse to garbage) —
// never a foreign exception like std::length_error or std::bad_alloc from a
// count-driven resize that was never bounds-checked.

void truncation_sweep(const Bytes& valid, const std::function<void(const Bytes&)>& handler,
                      const std::string& what) {
  ASSERT_FALSE(valid.empty()) << what;
  for (std::size_t len = 0; len < valid.size(); ++len) {
    const Bytes prefix(valid.begin(), valid.begin() + static_cast<std::ptrdiff_t>(len));
    try {
      handler(prefix);
    } catch (const Error&) {
      // Typed rejection is the expected failure mode.
    } catch (const std::exception& e) {
      FAIL() << what << " truncated to " << len << " bytes: foreign exception: " << e.what();
    }
  }
}

TEST(TruncationSweep, GarbledCircuitEveryPrefix) {
  circuits::BooleanCircuit c(2);
  c.add_output(c.and_gate(0, 1));
  crypto::Prg prg("ts1");
  const Bytes valid = mpc::garble(c, prg).garbled.serialize();
  truncation_sweep(valid, [&](const Bytes& b) { (void)mpc::GarbledCircuit::deserialize(b); },
                   "gc-bytes");
}

TEST(TruncationSweep, YaoServerResponseEveryPrefix) {
  circuits::BooleanCircuit c(2);
  c.add_output(c.and_gate(0, 1));
  const ot::SchnorrGroup group = ot::SchnorrGroup::rfc_like_512();
  crypto::Prg cprg("ts2c"), sprg("ts2s");
  mpc::YaoEvaluatorClient client(c, {true}, group);
  const Bytes query = client.query(cprg);
  mpc::YaoGarblerServer server(c, {false}, group);
  const Bytes valid = server.respond(query, sprg);
  truncation_sweep(valid, [&](const Bytes& resp) { (void)client.decode(resp); },
                   "yao-response");
}

TEST(TruncationSweep, CpirAnswerEveryPrefix) {
  crypto::Prg prg("ts3");
  const auto sk = he::paillier_keygen(prg, 256);
  const pir::PaillierPir pir(sk.public_key(), 16, 2);
  std::vector<std::uint64_t> db(16, 9);
  pir::PaillierPir::ClientState state;
  const Bytes valid = pir.answer_u64(db, pir.make_query(sk, 5, state, prg), prg);
  truncation_sweep(valid, [&](const Bytes& a) { (void)pir.decode_u64(sk, a); }, "cpir-answer");
}

TEST(TruncationSweep, ItPirQueryEveryPrefix) {
  const field::Fp64 f(field::Fp64::kMersenne61);
  const pir::PolyItPir pir(f, 64, 7, 1);
  std::vector<std::uint64_t> db(64, 5);
  crypto::Prg prg("ts4");
  pir::PolyItPir::ClientState state;
  const Bytes valid = pir.make_queries(3, state, prg)[0];
  truncation_sweep(valid, [&](const Bytes& q) { (void)pir.answer(0, db, q, nullptr); },
                   "itpir-query");
}

// --- adversarial element counts ---------------------------------------------
//
// Regression for the Reader::varint_count hardening: a message whose count
// field claims ~2^60 elements used to reach vector::resize/reserve and throw
// std::length_error or std::bad_alloc (foreign exceptions — or worse, an
// allocation attempt sized by the adversary). Every count must now be checked
// against the remaining payload and rejected as SerializationError.

TEST(Robustness, GarbledCircuitRejectsHugeTableCount) {
  Writer w;
  w.varint(std::uint64_t(1) << 60);  // claims ~10^18 garbled tables
  EXPECT_THROW((void)mpc::GarbledCircuit::deserialize(w.data()), SerializationError);
}

TEST(Robustness, GarbledCircuitRejectsHugeConstLabelCount) {
  Writer w;
  w.varint(0);                       // zero tables (valid)
  w.varint(std::uint64_t(1) << 60);  // huge const-label count
  EXPECT_THROW((void)mpc::GarbledCircuit::deserialize(w.data()), SerializationError);
}

TEST(Robustness, YaoResponseRejectsHugeServerLabelCount) {
  circuits::BooleanCircuit c(2);
  c.add_output(c.and_gate(0, 1));
  const ot::SchnorrGroup group = ot::SchnorrGroup::rfc_like_512();
  crypto::Prg cprg("hc1");
  mpc::YaoEvaluatorClient client(c, {true}, group);
  (void)client.query(cprg);
  crypto::Prg gprg("hc2");
  const Bytes gc_bytes = mpc::garble(c, gprg).garbled.serialize();
  Writer w;
  w.bytes({});                       // empty OT answer (parsed before use)
  w.bytes(gc_bytes);                 // valid garbled circuit
  w.varint(std::uint64_t(1) << 60);  // huge server-label count
  EXPECT_THROW((void)client.decode(w.data()), SerializationError);
}

TEST(Robustness, CpirAnswerRejectsHugeCiphertextCount) {
  crypto::Prg prg("hc3");
  const auto sk = he::paillier_keygen(prg, 256);
  const pir::PaillierPir pir(sk.public_key(), 16, 2);
  Writer w;
  w.varint(std::uint64_t(1) << 60);  // claims ~10^18 ciphertexts
  EXPECT_THROW((void)pir.decode_u64(sk, w.data()), SerializationError);
}

// --- systematic single-bit-flip sweep ---------------------------------------
//
// Complements fuzz_message's random mutations: every byte position of the
// serialized message gets exactly one (seeded) bit flipped. The parser must
// either throw spfe::Error or complete; a handler that can verify the final
// result additionally asserts the flip never yields a silently wrong value.

void bit_flip_sweep(const Bytes& valid, const std::function<void(const Bytes&)>& handler,
                    const std::string& what) {
  ASSERT_FALSE(valid.empty()) << what;
  crypto::Prg prg("bitflip-" + what);
  for (std::size_t i = 0; i < valid.size(); ++i) {
    Bytes mutated = valid;
    mutated[i] ^= static_cast<std::uint8_t>(1u << prg.uniform(8));
    try {
      handler(mutated);
    } catch (const Error&) {
      // Typed rejection is the expected failure mode.
    } catch (const std::exception& e) {
      FAIL() << what << " byte " << i << ": foreign exception: " << e.what();
    }
  }
}

TEST(BitFlipSweep, ItPirQueryEveryByte) {
  const field::Fp64 f(field::Fp64::kMersenne61);
  const pir::PolyItPir pir(f, 64, 7, 1);
  std::vector<std::uint64_t> db(64, 5);
  crypto::Prg prg("bf1");
  pir::PolyItPir::ClientState state;
  const Bytes valid = pir.make_queries(3, state, prg)[0];
  bit_flip_sweep(valid, [&](const Bytes& q) { (void)pir.answer(0, db, q, nullptr); },
                 "itpir-query");
}

// Wire form of bit_flip_sweep for the robust §3.1 clients: for every byte
// of server `liar`'s one-field-element answer, a kCorruptByte fault flips
// one seeded bit in flight, and `check` runs the robust exchange over a
// zero-latency SimStarNetwork carrying that plan.
void answer_bit_flip_sweep(std::size_t liar, const std::string& what,
                           const std::function<void(const net::FaultPlan&)>& check) {
  crypto::Prg prg("bitflip-" + what);
  for (std::size_t i = 0; i < sizeof(std::uint64_t); ++i) {
    net::FaultPlan plan;
    plan.add(net::Direction::kServerToClient, liar, 0,
             net::Fault{net::FaultKind::kCorruptByte, i,
                        static_cast<std::uint8_t>(1u << prg.uniform(8)), 0});
    SCOPED_TRACE(what + " byte " + std::to_string(i));
    check(plan);
  }
}

// Provisioned for e = 1; a single attempt, so no retry can route around
// the flipped answer and the decode itself must absorb it.
net::RobustConfig one_attempt_one_lie() {
  net::RobustConfig cfg;
  cfg.max_attempts = 1;
  cfg.byzantine_budget = 1;
  return cfg;
}

TEST(BitFlipSweep, ItPirAnswerEveryByteNeverDecodesWrong) {
  // Provisioned with e = 1 redundancy (k = l*t + 3), the robust client must
  // turn every single-bit answer corruption into the exact honest item — a
  // corrected lie or an erased unparseable answer, never a wrong value.
  const field::Fp64 f(field::Fp64::kMersenne61);
  const pir::PolyItPir pir(f, 64, 9, 1);
  std::vector<std::uint64_t> db(64);
  for (std::size_t i = 0; i < db.size(); ++i) db[i] = 1000 + i;
  answer_bit_flip_sweep(4, "itpir-answer-robust", [&](const net::FaultPlan& plan) {
    net::SimStarNetwork net(9, net::SimConfig{}, plan);
    crypto::Prg prg("bf2");
    EXPECT_EQ(pir.run_robust(net, db, 3, std::nullopt, prg, one_attempt_one_lie()).value, db[3]);
  });
}

TEST(BitFlipSweep, MultiServerSpfeQueryAndAnswerEveryByte) {
  const field::Fp64 f(field::Fp64::kMersenne61);
  const std::size_t k = protocols::MultiServerSumSpfe::min_servers(64, 1) + 2;
  const protocols::MultiServerSumSpfe proto(f, 64, 2, k, 1);
  std::vector<std::uint64_t> db(64, 3);
  crypto::Prg prg("bf3");
  protocols::MultiServerSumSpfe::ClientState state;
  const auto queries = proto.make_queries({1, 9}, state, prg);
  bit_flip_sweep(queries[0], [&](const Bytes& q) { (void)proto.answer(0, db, q, nullptr); },
                 "spfe-query");
  // e = 1 slack: corrected exactly or erased, never wrong.
  answer_bit_flip_sweep(2, "spfe-answer-robust", [&](const net::FaultPlan& plan) {
    net::SimStarNetwork net(k, net::SimConfig{}, plan);
    crypto::Prg run_prg("bf3-run");
    EXPECT_EQ(proto.run_robust(net, db, {1, 9}, std::nullopt, run_prg, one_attempt_one_lie()).value,
              6u);
  });
}

// The §4 package's one server->client message (packed SPIR answer plus the
// per-view mask ciphertexts), truncated at spread-out prefix lengths and
// corrupted at seeded positions in flight: the client must finish or throw
// a typed spfe::Error.
TEST(WireFaultSweep, MeanVariancePackageAnswer) {
  crypto::Prg key_prg("wf-package-key");
  const auto sk = he::paillier_keygen(key_prg, 256);
  constexpr std::size_t kN = 16, kM = 2, kCasesPerKind = 50;
  std::vector<std::uint64_t> db(kN);
  for (std::size_t i = 0; i < kN; ++i) db[i] = 100 + 3 * i;
  const field::Fp64 field(field::smallest_prime_above(1u << 20));
  for (const std::size_t depth : {1u, 2u}) {
    const protocols::MeanVariancePackage package(field, kN, kM, depth);
    const auto run = [&](const net::FaultPlan& plan) {
      net::SimStarNetwork net(1, net::SimConfig{}, plan);
      crypto::Prg client_prg("wf-package-client"), server_prg("wf-package-server");
      (void)package.run(net, 0, db, {3, 12}, sk, client_prg, server_prg);
      return net.stats().server_to_client_bytes;
    };
    const std::size_t size = run(net::FaultPlan{});
    crypto::Prg prg("wf-package-" + std::to_string(depth));
    for (std::size_t c = 0; c < 2 * kCasesPerKind; ++c) {
      net::Fault fault;
      if (c < kCasesPerKind) {
        fault.kind = net::FaultKind::kTruncate;
        fault.keep_bytes = c * size / kCasesPerKind;
      } else {
        fault.kind = net::FaultKind::kCorruptByte;
        fault.byte_index = prg.uniform(size);
        fault.xor_mask = static_cast<std::uint8_t>(1 + prg.uniform(255));
      }
      net::FaultPlan plan;
      plan.add(net::Direction::kServerToClient, 0, 0, fault);
      try {
        (void)run(plan);
      } catch (const Error&) {
        // Typed rejection is the expected failure mode.
      } catch (const std::exception& e) {
        FAIL() << "depth " << depth << ", case " << c << ": foreign exception: " << e.what();
      }
    }
  }
}

TEST(BitFlipSweep, TwoServerXorPirQueryAndAnswerEveryByte) {
  const pir::TwoServerXorPir pir(16, 4);
  std::vector<Bytes> db(16, Bytes(4, 7));
  crypto::Prg prg("bf4");
  pir::TwoServerXorPir::ClientState state;
  const auto [q0, q1] = pir.make_queries(3, state, prg);
  bit_flip_sweep(q0, [&](const Bytes& q) { (void)pir.answer(db, q); }, "xor-query");
  const Bytes a0 = pir.answer(db, q0);
  const Bytes a1 = pir.answer(db, q1);
  bit_flip_sweep(a0, [&](const Bytes& a) { (void)pir.decode(a, a1, state); }, "xor-answer");
}

TEST(BitFlipSweep, BaseOtMessagesEveryByte) {
  const ot::BaseOt ot(ot::SchnorrGroup::rfc_like_512());
  crypto::Prg prg("bf5");
  std::vector<ot::OtReceiverState> states;
  const Bytes query = ot.make_query({true}, states, prg);
  std::vector<std::pair<Bytes, Bytes>> msgs = {{Bytes(8, 1), Bytes(8, 2)}};
  bit_flip_sweep(query, [&](const Bytes& q) { (void)ot.answer(q, msgs, prg); }, "ot-query");
  const Bytes answer = ot.answer(query, msgs, prg);
  bit_flip_sweep(answer, [&](const Bytes& a) { (void)ot.decode(a, states); }, "ot-answer");
}

TEST(BitFlipSweep, GarbledCircuitBytesEveryByte) {
  circuits::BooleanCircuit c(2);
  c.add_output(c.and_gate(0, 1));
  crypto::Prg prg("bf6");
  const Bytes valid = mpc::garble(c, prg).garbled.serialize();
  bit_flip_sweep(valid, [&](const Bytes& b) { (void)mpc::GarbledCircuit::deserialize(b); },
                 "gc-bytes");
}

}  // namespace
}  // namespace spfe
