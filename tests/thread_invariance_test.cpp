// The parallel crypto engine's contract: SPFE_THREADS is a pure performance
// knob. For any thread count, protocol transcripts (every byte sent in either
// direction) and CommStats metering must be identical to a serial run. These
// tests run bench-shaped PIR and multi-server flows at 1, 2, and 8 threads
// and diff the results.
#include <gtest/gtest.h>

#include <functional>
#include <vector>

#include "common/parallel.h"
#include "crypto/prg.h"
#include "he/paillier.h"
#include "net/adversary.h"
#include "net/network.h"
#include "net/sim.h"
#include "obs/obs.h"
#include "pir/cpir.h"
#include "spfe/multiserver.h"
#include "spfe/stats.h"
#include "recording_net.h"

namespace spfe {
namespace {

using bignum::BigInt;

constexpr std::size_t kThreadCounts[] = {1, 2, 8};

class ThreadInvarianceTest : public ::testing::Test {
 protected:
  ~ThreadInvarianceTest() override { common::ThreadPool::set_global_threads(0); }
};

struct PirTranscript {
  Bytes query;
  Bytes answer;
  std::uint64_t decoded = 0;

  bool operator==(const PirTranscript&) const = default;
};

PirTranscript run_pir(const he::PaillierPrivateKey& sk, std::size_t depth) {
  constexpr std::size_t kN = 128;
  std::vector<std::uint64_t> db(kN);
  for (std::size_t i = 0; i < kN; ++i) db[i] = i * 31 + 7;
  const pir::PaillierPir p(sk.public_key(), kN, depth);
  // Fresh, identically seeded PRGs per run: any divergence in PRG
  // consumption order across thread counts would change these bytes.
  crypto::Prg client_prg("ti-pir-client");
  crypto::Prg server_prg("ti-pir-server");
  PirTranscript t;
  pir::PaillierPir::ClientState state;
  t.query = p.make_query(sk, 77, state, client_prg);
  t.answer = p.answer_u64(db, t.query, server_prg);
  t.decoded = p.decode_u64(sk, t.answer);
  return t;
}

TEST_F(ThreadInvarianceTest, PaillierPirTranscriptsAreThreadCountInvariant) {
  crypto::Prg prg("ti-pir-key");
  const he::PaillierPrivateKey sk = he::paillier_keygen(prg, 256);
  for (const std::size_t depth : {1u, 2u, 3u}) {
    common::ThreadPool::set_global_threads(1);
    const PirTranscript serial = run_pir(sk, depth);
    EXPECT_EQ(serial.decoded, 77u * 31 + 7);
    for (const std::size_t threads : kThreadCounts) {
      common::ThreadPool::set_global_threads(threads);
      EXPECT_EQ(run_pir(sk, depth), serial)
          << "depth " << depth << ", threads " << threads;
    }
  }
}

// Every message of one §4 mean+variance package run (the batched SPIR query
// and E(c_k) up, the packed SPIR answer and per-view mask ciphertexts down).
std::vector<std::pair<std::size_t, Bytes>> run_package(const he::PaillierPrivateKey& sk) {
  constexpr std::size_t kN = 64, kM = 3;
  std::vector<std::uint64_t> db(kN);
  for (std::size_t i = 0; i < kN; ++i) db[i] = (i * 37 + 11) % 1000;
  const protocols::MeanVariancePackage package(
      field::Fp64(field::smallest_prime_above(1u << 24)), kN, kM, 2);
  crypto::Prg client_prg("ti-package-client");
  crypto::Prg server_prg("ti-package-server");
  testnet::RecordingNet<net::StarNetwork> net(1);
  const protocols::MeanVarianceResult res =
      package.run(net, 0, db, {5, 17, 63}, sk, client_prg, server_prg);
  EXPECT_EQ(res.sum, db[5] + db[17] + db[63]);
  return net.log;
}

TEST_F(ThreadInvarianceTest, MeanVariancePackageTranscriptIsThreadCountInvariant) {
  crypto::Prg prg("ti-package-key");
  const he::PaillierPrivateKey sk = he::paillier_keygen(prg, 256);
  common::ThreadPool::set_global_threads(1);
  const auto serial = run_package(sk);
  ASSERT_EQ(serial.size(), 2u);  // one message each way
  for (const std::size_t threads : kThreadCounts) {
    common::ThreadPool::set_global_threads(threads);
    EXPECT_EQ(run_package(sk), serial) << "threads " << threads;
  }
}

struct MultiServerRun {
  std::uint64_t result = 0;
  net::CommStats stats;
};

void expect_same_stats(const net::CommStats& a, const net::CommStats& b,
                       std::size_t threads) {
  EXPECT_EQ(a.client_to_server_bytes, b.client_to_server_bytes) << "threads " << threads;
  EXPECT_EQ(a.server_to_client_bytes, b.server_to_client_bytes) << "threads " << threads;
  EXPECT_EQ(a.client_to_server_messages, b.client_to_server_messages)
      << "threads " << threads;
  EXPECT_EQ(a.server_to_client_messages, b.server_to_client_messages)
      << "threads " << threads;
  EXPECT_EQ(a.half_rounds, b.half_rounds) << "threads " << threads;
}

template <typename Protocol>
MultiServerRun run_multiserver(const Protocol& proto,
                               std::span<const std::uint64_t> database,
                               const std::vector<std::size_t>& indices) {
  net::StarNetwork net(proto.num_servers());
  crypto::Prg prg("ti-ms-client");
  crypto::Prg seed_prg("ti-ms-seed");
  const auto spir_seed = seed_prg.fork_seed("spir");
  MultiServerRun run;
  run.result = proto.run(net, database, indices, spir_seed, prg);
  EXPECT_TRUE(net.idle());
  run.stats = net.stats();
  return run;
}

TEST_F(ThreadInvarianceTest, MultiServerSumIsThreadCountInvariant) {
  const field::Fp64 field(field::Fp64::kMersenne61);
  constexpr std::size_t kN = 512;
  constexpr std::size_t kM = 4;
  std::vector<std::uint64_t> db(kN);
  for (std::size_t i = 0; i < kN; ++i) db[i] = (i * 131 + 5) % 10007;
  const std::size_t k = protocols::MultiServerSumSpfe::min_servers(kN, 1);
  const protocols::MultiServerSumSpfe proto(field, kN, kM, k, 1);
  const std::vector<std::size_t> indices = {3, 77, 200, 511};

  common::ThreadPool::set_global_threads(1);
  const MultiServerRun serial = run_multiserver(proto, db, indices);
  EXPECT_EQ(serial.result, (db[3] + db[77] + db[200] + db[511]) % field.modulus());
  for (const std::size_t threads : kThreadCounts) {
    common::ThreadPool::set_global_threads(threads);
    const MultiServerRun run = run_multiserver(proto, db, indices);
    EXPECT_EQ(run.result, serial.result) << "threads " << threads;
    expect_same_stats(run.stats, serial.stats, threads);
  }
}

TEST_F(ThreadInvarianceTest, MultiServerFormulaIsThreadCountInvariant) {
  const field::Fp64 field(field::Fp64::kMersenne61);
  constexpr std::size_t kN = 64;
  std::vector<std::uint64_t> db(kN);
  for (std::size_t i = 0; i < kN; ++i) db[i] = i % 2;
  const circuits::Formula formula =
      circuits::Formula::f_and(circuits::Formula::leaf(0), circuits::Formula::leaf(1));
  const std::size_t k = protocols::MultiServerFormulaSpfe::min_servers(formula, kN, 1);
  const protocols::MultiServerFormulaSpfe proto(field, formula, kN, k, 1);
  const std::vector<std::size_t> indices = {3, 7};  // both odd -> both 1 -> AND = 1

  common::ThreadPool::set_global_threads(1);
  const MultiServerRun serial = run_multiserver(proto, db, indices);
  EXPECT_EQ(serial.result, 1u);
  for (const std::size_t threads : kThreadCounts) {
    common::ThreadPool::set_global_threads(threads);
    const MultiServerRun run = run_multiserver(proto, db, indices);
    EXPECT_EQ(run.result, serial.result) << "threads " << threads;
    expect_same_stats(run.stats, serial.stats, threads);
  }
}

// The k-server §4 package (one robust run over the packed view) on weathered
// links with a consistent liar and a hedge spare: results, attempt counts
// and CommStats match the serial run.
struct SessionRun {
  std::vector<std::uint64_t> results;  // sum, sum of squares per package
  std::vector<std::size_t> attempts;
  net::CommStats stats;
};

SessionRun run_robust_session() {
  const field::Fp64 field(field::Fp64::kMersenne61);
  constexpr std::size_t kN = 256, kM = 8;
  std::vector<std::uint64_t> db(kN);
  for (std::size_t i = 0; i < kN; ++i) db[i] = (i * 7919 + 3) % 200'001;
  const std::size_t k = net::provisioned_servers(8, 1, 0, 1);
  net::SimConfig cfg;
  cfg.seed = crypto::Prg("ti-session").fork_seed("links");
  cfg.profiles.assign(k, net::ServerProfile{200, 100, 10, 3});
  net::SimStarNetwork net(k, cfg);
  net::AdversaryEngine engine(std::make_shared<net::ConsistentLieStrategy>(field.modulus(), 99),
                              {4});
  net.set_adversary(&engine);
  protocols::RobustStatsConfig sc;
  sc.byzantine_budget = 1;
  sc.hedge_spares = 1;
  protocols::RobustStatsSession session(field, kN, kM, k, 1,
                                        crypto::Prg("ti-session").fork_seed("session"), sc);
  crypto::Prg seeder("ti-session-queries");
  SessionRun run;
  for (std::size_t q = 0; q < 3; ++q) {
    std::vector<std::size_t> indices(kM);
    for (std::size_t j = 0; j < kM; ++j) indices[j] = (q * 41 + j * 29) % kN;
    net::RobustnessReport report;
    const protocols::MeanVarianceResult res = session.mean_variance(
        net, db, indices, seeder.fork_seed("q" + std::to_string(q)), &report);
    std::uint64_t sum = 0, squares = 0;
    for (const std::size_t i : indices) {
      sum += db[i];
      squares += db[i] * db[i];
    }
    EXPECT_EQ(res.sum, sum) << "query " << q;
    EXPECT_EQ(res.sum_of_squares, squares) << "query " << q;
    run.results.push_back(res.sum);
    run.results.push_back(res.sum_of_squares);
    run.attempts.push_back(report.attempts);
  }
  EXPECT_TRUE(net.idle());
  run.stats = net.stats();
  return run;
}

TEST_F(ThreadInvarianceTest, RobustStatsSessionMeanVarianceIsThreadCountInvariant) {
  common::ThreadPool::set_global_threads(1);
  const SessionRun serial = run_robust_session();
  for (const std::size_t threads : kThreadCounts) {
    common::ThreadPool::set_global_threads(threads);
    const SessionRun run = run_robust_session();
    EXPECT_EQ(run.results, serial.results) << "threads " << threads;
    EXPECT_EQ(run.attempts, serial.attempts) << "threads " << threads;
    expect_same_stats(run.stats, serial.stats, threads);
  }
}

// Per-server answer bytes (not just the interpolated result) must match the
// serial run: this pins the full server->client transcript.
TEST_F(ThreadInvarianceTest, MultiServerAnswerBytesAreThreadCountInvariant) {
  const field::Fp64 field(field::Fp64::kMersenne61);
  constexpr std::size_t kN = 256;
  std::vector<std::uint64_t> db(kN);
  for (std::size_t i = 0; i < kN; ++i) db[i] = (i * 17 + 3) % 997;
  const std::size_t k = protocols::MultiServerSumSpfe::min_servers(kN, 2);
  const protocols::MultiServerSumSpfe proto(field, kN, 3, k, 2);

  auto transcript = [&] {
    crypto::Prg prg("ti-ms-bytes");
    crypto::Prg seed_prg("ti-ms-bytes-seed");
    const auto spir_seed = seed_prg.fork_seed("spir");
    protocols::MultiServerSumSpfe::ClientState state;
    std::vector<Bytes> msgs = proto.make_queries({1, 128, 255}, state, prg);
    std::vector<Bytes> all = msgs;
    for (std::size_t h = 0; h < msgs.size(); ++h) {
      all.push_back(proto.answer(h, db, msgs[h], &spir_seed));
    }
    return all;
  };

  common::ThreadPool::set_global_threads(1);
  const std::vector<Bytes> serial = transcript();
  for (const std::size_t threads : kThreadCounts) {
    common::ThreadPool::set_global_threads(threads);
    EXPECT_EQ(transcript(), serial) << "threads " << threads;
  }
}

// --- trace determinism -------------------------------------------------------
//
// The observability layer's contract mirrors the transcript contract: for a
// fixed seed, the span tree (names, nesting, notes, per-span op deltas) and
// the global op-counter totals are identical at every SPFE_THREADS setting.
// Only timing may differ. This holds because spans are opened exclusively on
// the protocol-driving thread and parallel_for is fork-join, so every span
// boundary is a deterministic program point.

struct SpanShape {
  std::string name;
  std::size_t parent = 0;
  std::size_t depth = 0;
  std::string note;
  obs::OpCounts ops{};

  bool operator==(const SpanShape&) const = default;
};

struct TraceShape {
  std::vector<SpanShape> spans;
  obs::OpCounts totals{};
};

TraceShape capture_trace(const std::function<void()>& run) {
  obs::Tracer& tracer = obs::Tracer::global();
  tracer.set_enabled(true);
  tracer.reset();
  run();
  TraceShape shape;
  for (const obs::SpanRecord& s : tracer.spans()) {
    EXPECT_FALSE(s.open()) << "span " << s.name << " left open";
    shape.spans.push_back({s.name, s.parent, s.depth, s.note, s.delta()});
  }
  shape.totals = tracer.totals();
  tracer.set_enabled(false);
  tracer.reset();
  return shape;
}

void expect_same_trace(const TraceShape& got, const TraceShape& want, std::size_t threads) {
  ASSERT_EQ(got.spans.size(), want.spans.size()) << "threads " << threads;
  for (std::size_t i = 0; i < want.spans.size(); ++i) {
    EXPECT_EQ(got.spans[i].name, want.spans[i].name) << "span " << i << ", threads " << threads;
    EXPECT_EQ(got.spans[i].parent, want.spans[i].parent)
        << "span " << i << " (" << want.spans[i].name << "), threads " << threads;
    EXPECT_EQ(got.spans[i].depth, want.spans[i].depth)
        << "span " << i << " (" << want.spans[i].name << "), threads " << threads;
    EXPECT_EQ(got.spans[i].note, want.spans[i].note)
        << "span " << i << " (" << want.spans[i].name << "), threads " << threads;
    for (std::size_t op = 0; op < obs::kNumOps; ++op) {
      EXPECT_EQ(got.spans[i].ops[op], want.spans[i].ops[op])
          << "span " << i << " (" << want.spans[i].name << "), op "
          << obs::op_name(static_cast<obs::Op>(op)) << ", threads " << threads;
    }
  }
  for (std::size_t op = 0; op < obs::kNumOps; ++op) {
    EXPECT_EQ(got.totals[op], want.totals[op])
        << "total " << obs::op_name(static_cast<obs::Op>(op)) << ", threads " << threads;
  }
}

TEST_F(ThreadInvarianceTest, PirTraceIsThreadCountInvariant) {
  crypto::Prg prg("ti-trace-pir-key");
  const he::PaillierPrivateKey sk = he::paillier_keygen(prg, 256);
  common::ThreadPool::set_global_threads(1);
  const TraceShape serial = capture_trace([&] { (void)run_pir(sk, 2); });
  // The cPIR run records at least query/answer/fold/decode spans with ops.
  ASSERT_FALSE(serial.spans.empty());
  bool any_ops = false;
  for (const std::uint64_t c : serial.totals) any_ops |= c != 0;
  EXPECT_TRUE(any_ops);
  for (const std::size_t threads : kThreadCounts) {
    common::ThreadPool::set_global_threads(threads);
    expect_same_trace(capture_trace([&] { (void)run_pir(sk, 2); }), serial, threads);
  }
}

TEST_F(ThreadInvarianceTest, MultiServerTraceIsThreadCountInvariant) {
  const field::Fp64 field(field::Fp64::kMersenne61);
  constexpr std::size_t kN = 256;
  std::vector<std::uint64_t> db(kN);
  for (std::size_t i = 0; i < kN; ++i) db[i] = (i * 19 + 11) % 4099;
  const std::size_t k = protocols::MultiServerSumSpfe::min_servers(kN, 1);
  const protocols::MultiServerSumSpfe proto(field, kN, 3, k, 1);
  const std::vector<std::size_t> indices = {2, 100, 255};

  common::ThreadPool::set_global_threads(1);
  const TraceShape serial =
      capture_trace([&] { (void)run_multiserver(proto, db, indices); });
  ASSERT_FALSE(serial.spans.empty());
  // The span tree must contain the multiserver phase structure.
  bool saw_run = false;
  for (const SpanShape& s : serial.spans) saw_run |= s.name == "multiserver.run";
  EXPECT_TRUE(saw_run);
  for (const std::size_t threads : kThreadCounts) {
    common::ThreadPool::set_global_threads(threads);
    expect_same_trace(capture_trace([&] { (void)run_multiserver(proto, db, indices); }),
                      serial, threads);
  }
}

}  // namespace
}  // namespace spfe
