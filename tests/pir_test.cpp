#include <gtest/gtest.h>

#include <map>

#include "bignum/serialize.h"
#include "common/error.h"
#include "common/serialize.h"
#include "he/paillier.h"
#include "net/fault.h"
#include "obs/obs.h"
#include "pir/batch_pir.h"
#include "pir/cpir.h"
#include "pir/itpir.h"

namespace spfe::pir {
namespace {

using bignum::BigInt;
using field::Fp64;

std::vector<std::uint64_t> make_db(std::size_t n, std::uint64_t modulus) {
  std::vector<std::uint64_t> db(n);
  for (std::size_t i = 0; i < n; ++i) db[i] = (i * 31 + 7) % modulus;
  return db;
}

// ---- Selection polynomial ---------------------------------------------------

TEST(SelectionPolynomial, RecoversItemsOnBooleanPoints) {
  const Fp64 f(1009);
  const auto db = make_db(8, 1009);
  std::vector<std::uint64_t> scratch;
  for (std::size_t i = 0; i < 8; ++i) {
    // Encode i as 3 bits, leftmost (MSB) first.
    std::vector<std::uint64_t> point = {(i >> 2) & 1, (i >> 1) & 1, i & 1};
    EXPECT_EQ(eval_selection_polynomial(f, db, point, scratch), db[i]) << i;
  }
}

TEST(SelectionPolynomial, HandlesNonPowerOfTwoDatabase) {
  const Fp64 f(1009);
  const auto db = make_db(5, 1009);
  std::vector<std::uint64_t> point = {1, 0, 0};  // index 4
  std::vector<std::uint64_t> scratch;
  EXPECT_EQ(eval_selection_polynomial(f, db, point, scratch), db[4]);
}

// P0(y) = sum_i x_i prod_k (bit_k(i) ? y_k : 1 - y_k), bit 0 the leftmost.
std::uint64_t brute_force_p0(const Fp64& f, std::span<const std::uint64_t> db,
                             const std::vector<std::uint64_t>& y) {
  std::uint64_t acc = f.zero();
  for (std::size_t i = 0; i < db.size(); ++i) {
    std::uint64_t w = f.one();
    for (std::size_t k = 0; k < y.size(); ++k) {
      const bool bit = ((i >> (y.size() - 1 - k)) & 1) != 0;
      w = f.mul(w, bit ? y[k] : f.sub(f.one(), y[k]));
    }
    acc = f.add(acc, f.mul(db[i], w));
  }
  return acc;
}

TEST(SelectionPolynomial, MatchesBruteForceAtRandomPoints) {
  // Non-Boolean points tell apart which coordinates weight which half of
  // the index; the ragged sizes end the last row at n, and points longer
  // than the database's width take the leading 1 - y factors. Odd trials
  // use unreduced 64-bit entries.
  crypto::Prg prg("selpoly-property");
  std::vector<std::uint64_t> scratch;
  for (const std::uint64_t p : {std::uint64_t(2), std::uint64_t(1009),
                                field::smallest_prime_above(8ull * 200001 * 200001),
                                Fp64::kMersenne61, (std::uint64_t(1) << 63) - 25}) {
    const Fp64 f(p);
    for (const std::size_t n : {1, 2, 3, 5, 1000, 1024, 1025}) {
      const std::size_t width = n < 2 ? 0 : selection_bits(n);
      for (const std::size_t l : {width, width + 1, std::size_t(40)}) {
        for (int trial = 0; trial < 4; ++trial) {
          std::vector<std::uint64_t> db(n), point(l);
          for (auto& x : db) x = trial % 2 == 0 ? f.random(prg) : prg.u64();
          for (auto& y : point) y = f.random(prg);
          ASSERT_EQ(eval_selection_polynomial(f, db, point, scratch), brute_force_p0(f, db, point))
              << "p=" << p << " n=" << n << " l=" << l << " trial=" << trial;
        }
      }
    }
  }
  // The pairs' worst case at the benchmark's size: entries 2^64 - 1 and
  // coordinates p - 1 put half the products near 2^127, so about half the
  // pair sums have a high word of p or more and must drop p * 2^64 before
  // their division; 2^16 + 1 entries give an odd width and a one-entry
  // last row. The database is a prefix of a longer run of such
  // entries, so reading a row past n changes the value.
  const Fp64 f((std::uint64_t(1) << 63) - 25);
  const std::vector<std::uint64_t> ones((1 << 16) + 1024, ~std::uint64_t(0));
  for (const std::size_t n : {std::size_t(1) << 16, (std::size_t(1) << 16) + 1}) {
    const std::span<const std::uint64_t> db(ones.data(), n);
    for (const std::size_t l : {selection_bits(n), std::size_t(40)}) {
      const std::vector<std::uint64_t> point(l, f.modulus() - 1);
      ASSERT_EQ(eval_selection_polynomial(f, db, point, scratch), brute_force_p0(f, db, point))
          << "n=" << n << " l=" << l;
    }
  }
}

TEST(SelectionPolynomial, RejectsDatabaseLongerThanTwoToTheL) {
  const Fp64 f(1009);
  const auto db = make_db(9, 1009);
  const std::vector<std::uint64_t> point = {1, 0, 0};
  std::vector<std::uint64_t> scratch;
  EXPECT_THROW(eval_selection_polynomial(f, db, point, scratch), InvalidArgument);
}

TEST(SelectionPolynomial, RejectsCoordinateOutOfField) {
  const Fp64 f(1009);
  const auto db = make_db(8, 1009);
  const std::vector<std::uint64_t> point = {0, 1009, 1};
  std::vector<std::uint64_t> scratch;
  EXPECT_THROW(eval_selection_polynomial(f, db, point, scratch), InvalidArgument);
}

TEST(SelectionPolynomial, RejectsSixtyFourCoordinates) {
  const Fp64 f(1009);
  const auto db = make_db(8, 1009);
  const std::vector<std::uint64_t> point(64, 0);
  std::vector<std::uint64_t> scratch;
  EXPECT_THROW(eval_selection_polynomial(f, db, point, scratch), InvalidArgument);
}

// ---- PolyItPir --------------------------------------------------------------

class PolyItPirTest : public ::testing::TestWithParam<std::tuple<std::size_t, std::size_t>> {};

TEST_P(PolyItPirTest, RetrievesEveryIndex) {
  const auto [n, t] = GetParam();
  const Fp64 f(Fp64::kMersenne61);
  const std::size_t k = PolyItPir::min_servers(n, t);
  const PolyItPir pir(f, n, k, t);
  const auto db = make_db(n, 1u << 20);
  crypto::Prg prg("itpir");
  for (std::size_t i = 0; i < n; i += std::max<std::size_t>(1, n / 7)) {
    PolyItPir::ClientState state;
    const auto queries = pir.make_queries(i, state, prg);
    ASSERT_EQ(queries.size(), k);
    std::vector<Bytes> answers;
    for (std::size_t h = 0; h < k; ++h) {
      answers.push_back(pir.answer(h, db, queries[h], nullptr));
    }
    EXPECT_EQ(pir.decode(answers, state), db[i]) << "n=" << n << " t=" << t << " i=" << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, PolyItPirTest,
                         ::testing::Values(std::tuple{2u, 1u}, std::tuple{16u, 1u},
                                           std::tuple{16u, 2u}, std::tuple{100u, 1u},
                                           std::tuple{256u, 2u}, std::tuple{1000u, 1u}));

TEST(PolyItPir, SpirMaskingStillDecodes) {
  const Fp64 f(Fp64::kMersenne61);
  constexpr std::size_t kN = 64, kT = 1;
  const std::size_t k = PolyItPir::min_servers(kN, kT);
  const PolyItPir pir(f, kN, k, kT);
  const auto db = make_db(kN, 1u << 16);
  crypto::Prg prg("itspir");
  const crypto::Prg::Seed shared = crypto::Prg::random_seed();
  PolyItPir::ClientState state;
  const auto queries = pir.make_queries(13, state, prg);
  std::vector<Bytes> answers;
  for (std::size_t h = 0; h < k; ++h) {
    answers.push_back(pir.answer(h, db, queries[h], &shared));
  }
  EXPECT_EQ(pir.decode(answers, state), db[13]);
}

TEST(PolyItPir, SpirMaskChangesAnswers) {
  const Fp64 f(Fp64::kMersenne61);
  constexpr std::size_t kN = 64, kT = 1;
  const std::size_t k = PolyItPir::min_servers(kN, kT);
  const PolyItPir pir(f, kN, k, kT);
  const auto db = make_db(kN, 1u << 16);
  crypto::Prg prg("mask-diff");
  const crypto::Prg::Seed shared = crypto::Prg::random_seed();
  PolyItPir::ClientState state;
  const auto queries = pir.make_queries(13, state, prg);
  EXPECT_NE(pir.answer(0, db, queries[0], &shared), pir.answer(0, db, queries[0], nullptr));
}

TEST(PolyItPir, QueryHidesIndexFromSingleServer) {
  // t=1: one server's received point must be (statistically) independent of
  // the index. Compare first-coordinate distributions for two indices.
  const Fp64 f(101);
  constexpr std::size_t kN = 8;
  const std::size_t k = PolyItPir::min_servers(kN, 1);
  const PolyItPir pir(f, kN, k, 1);
  crypto::Prg prg("hiding");
  std::map<std::uint64_t, int> dist_a, dist_b;
  for (int trial = 0; trial < 4000; ++trial) {
    PolyItPir::ClientState st;
    // Keep the query buffers alive: Reader only holds a view.
    const auto qa = pir.make_queries(0, st, prg);
    Reader ra(qa[0]);
    dist_a[ra.u64()]++;
    const auto qb = pir.make_queries(7, st, prg);
    Reader rb(qb[0]);
    dist_b[rb.u64()]++;
  }
  for (std::uint64_t v = 0; v < 101; ++v) {
    EXPECT_NEAR(dist_a[v], dist_b[v], 60) << v;
  }
}

TEST(PolyItPir, ValidatesParameters) {
  const Fp64 f(1009);
  EXPECT_THROW(PolyItPir(f, 0, 5, 1), InvalidArgument);
  EXPECT_THROW(PolyItPir(f, 16, 4, 1), InvalidArgument);  // k <= t*log n
  EXPECT_THROW(PolyItPir(f, 16, 5, 0), InvalidArgument);
  const Fp64 tiny(5);
  EXPECT_THROW(PolyItPir(tiny, 16, 5, 1), InvalidArgument);  // field <= k
}

TEST(PolyItPir, RejectsMalformedMessages) {
  const Fp64 f(1009);
  const PolyItPir pir(f, 16, 5, 1);
  const auto db = make_db(16, 100);
  crypto::Prg prg("bad");
  EXPECT_THROW(pir.answer(0, db, Bytes{1, 2, 3}, nullptr), Error);
  // Query element outside the field.
  Writer w;
  for (int i = 0; i < 4; ++i) w.u64(~0ull);
  EXPECT_THROW(pir.answer(0, db, w.data(), nullptr), ProtocolError);
}

// ---- TwoServerXorPir --------------------------------------------------------

TEST(TwoServerXorPir, RetrievesByteItems) {
  constexpr std::size_t kN = 30, kItem = 5;
  TwoServerXorPir pir(kN, kItem);
  std::vector<Bytes> db(kN);
  crypto::Prg data("xordata");
  for (auto& item : db) item = data.bytes(kItem);
  crypto::Prg prg("xorpir");
  for (std::size_t i = 0; i < kN; ++i) {
    TwoServerXorPir::ClientState state;
    const auto [q0, q1] = pir.make_queries(i, state, prg);
    const Bytes a0 = pir.answer(db, q0);
    const Bytes a1 = pir.answer(db, q1);
    EXPECT_EQ(pir.decode(a0, a1, state), db[i]) << i;
  }
}

TEST(TwoServerXorPir, SingleQueryIsUniform) {
  TwoServerXorPir pir(16, 1);
  crypto::Prg prg("xoruniform");
  // Each server's query is a fresh uniform bitmap regardless of index:
  // check the two queries differ in exactly the row bit.
  for (std::size_t i = 0; i < 16; ++i) {
    TwoServerXorPir::ClientState state;
    const auto [q0, q1] = pir.make_queries(i, state, prg);
    const Bytes diff = xor_bytes(q0, q1);
    int set_bits = 0;
    for (const auto b : diff) set_bits += std::popcount(static_cast<unsigned>(b));
    EXPECT_EQ(set_bits, 1);
  }
}

// ---- PaillierPir ------------------------------------------------------------

class PaillierPirTest : public ::testing::Test {
 protected:
  PaillierPirTest() : prg_("cpir"), sk_(he::paillier_keygen(prg_, 256)) {}

  crypto::Prg prg_;
  he::PaillierPrivateKey sk_;
};

TEST_F(PaillierPirTest, DepthOneRetrieves) {
  constexpr std::size_t kN = 20;
  const PaillierPir pir(sk_.public_key(), kN, 1);
  const auto db = make_db(kN, 1u << 30);
  for (const std::size_t i : {0u, 7u, 19u}) {
    PaillierPir::ClientState state;
    const Bytes q = pir.make_query(sk_, i, state, prg_);
    const Bytes a = pir.answer_u64(db, q, prg_);
    EXPECT_EQ(pir.decode_u64(sk_, a), db[i]) << i;
  }
}

TEST_F(PaillierPirTest, DepthTwoRetrieves) {
  constexpr std::size_t kN = 50;
  const PaillierPir pir(sk_.public_key(), kN, 2);
  const auto db = make_db(kN, 1u << 30);
  for (const std::size_t i : {0u, 1u, 6u, 7u, 23u, 49u}) {
    PaillierPir::ClientState state;
    const Bytes q = pir.make_query(sk_, i, state, prg_);
    const Bytes a = pir.answer_u64(db, q, prg_);
    EXPECT_EQ(pir.decode_u64(sk_, a), db[i]) << i;
  }
}

TEST_F(PaillierPirTest, DepthThreeRetrieves) {
  constexpr std::size_t kN = 30;
  const PaillierPir pir(sk_.public_key(), kN, 3);
  const auto db = make_db(kN, 1000000);
  for (const std::size_t i : {0u, 13u, 29u}) {
    PaillierPir::ClientState state;
    const Bytes q = pir.make_query(sk_, i, state, prg_);
    const Bytes a = pir.answer_u64(db, q, prg_);
    EXPECT_EQ(pir.decode_u64(sk_, a), db[i]) << i;
  }
}

TEST_F(PaillierPirTest, ByteItemsRoundTrip) {
  constexpr std::size_t kN = 12, kItem = 70;  // item larger than one chunk
  const PaillierPir pir(sk_.public_key(), kN, 2);
  std::vector<Bytes> db(kN);
  crypto::Prg data("bytedata");
  for (auto& item : db) item = data.bytes(kItem);
  for (const std::size_t i : {0u, 5u, 11u}) {
    PaillierPir::ClientState state;
    const Bytes q = pir.make_query(sk_, i, state, prg_);
    const Bytes a = pir.answer_bytes(db, kItem, q, prg_);
    EXPECT_EQ(pir.decode_bytes(sk_, kItem, a), db[i]) << i;
  }
}

TEST_F(PaillierPirTest, FoldKernelsByteIdenticalU64) {
  // The multi-exp fold is an evaluation-order change only: with identically
  // seeded server PRGs both kernels must emit byte-identical answers.
  constexpr std::size_t kN = 50;
  const auto db = make_db(kN, 1u << 30);
  for (const std::size_t depth : {1u, 2u, 3u}) {
    PaillierPir multi(sk_.public_key(), kN, depth);
    PaillierPir naive(sk_.public_key(), kN, depth);
    naive.set_fold_kernel(PaillierPir::FoldKernel::kNaive);
    ASSERT_EQ(multi.fold_kernel(), PaillierPir::FoldKernel::kMultiExp);
    PaillierPir::ClientState state;
    const Bytes q = multi.make_query(sk_, 23, state, prg_);
    crypto::Prg s1("fold-kernel-server"), s2("fold-kernel-server");
    const Bytes a_multi = multi.answer_u64(db, q, s1);
    const Bytes a_naive = naive.answer_u64(db, q, s2);
    EXPECT_EQ(a_multi, a_naive) << "depth=" << depth;
    EXPECT_EQ(multi.decode_u64(sk_, a_multi), db[23]) << "depth=" << depth;
  }
}

TEST_F(PaillierPirTest, FoldKernelsByteIdenticalBytesMultiChunk) {
  constexpr std::size_t kN = 12, kItem = 70;  // multiple chunks per item
  PaillierPir multi(sk_.public_key(), kN, 3);
  PaillierPir naive(sk_.public_key(), kN, 3);
  naive.set_fold_kernel(PaillierPir::FoldKernel::kNaive);
  std::vector<Bytes> db(kN);
  crypto::Prg data("bytedata-kernel");
  for (auto& item : db) item = data.bytes(kItem);
  PaillierPir::ClientState state;
  const Bytes q = multi.make_query(sk_, 5, state, prg_);
  crypto::Prg s1("fold-kernel-bytes"), s2("fold-kernel-bytes");
  const Bytes a_multi = multi.answer_bytes(db, kItem, q, s1);
  const Bytes a_naive = naive.answer_bytes(db, kItem, q, s2);
  EXPECT_EQ(a_multi, a_naive);
  EXPECT_EQ(multi.decode_bytes(sk_, kItem, a_multi), db[5]);
}

TEST_F(PaillierPirTest, DepthTwoCommunicationBeatsDepthOne) {
  constexpr std::size_t kN = 100;
  const PaillierPir d1(sk_.public_key(), kN, 1);
  const PaillierPir d2(sk_.public_key(), kN, 2);
  PaillierPir::ClientState s1, s2;
  const Bytes q1 = d1.make_query(sk_, 3, s1, prg_);
  const Bytes q2 = d2.make_query(sk_, 3, s2, prg_);
  EXPECT_LT(q2.size(), q1.size() / 3);
}

TEST_F(PaillierPirTest, MaliciousLinearCombinationIsWeakSecurity) {
  // A client that encrypts (1, 1, 0, ...) learns x_0 + x_1 — one linear
  // function of two locations, i.e. the paper's weak-security class.
  constexpr std::size_t kN = 8;
  const PaillierPir pir(sk_.public_key(), kN, 1);
  const auto db = make_db(kN, 1000);
  Writer w;
  for (std::size_t i = 0; i < kN; ++i) {
    w.raw(sk_.encrypt(BigInt(i < 2 ? 1 : 0), prg_)
              .to_bytes_be_padded(sk_.public_key().ciphertext_bytes()));
  }
  const Bytes a = pir.answer_u64(db, w.data(), prg_);
  EXPECT_EQ(pir.decode_u64(sk_, a), db[0] + db[1]);
}

// The emitted ciphertexts of an answer: varint count, then fixed-width cts.
std::vector<Bytes> answer_ciphertexts(const he::PaillierPublicKey& pk, const Bytes& answer) {
  Reader r(answer);
  std::vector<Bytes> cts(r.varint_count(pk.ciphertext_bytes()));
  for (Bytes& ct : cts) ct = r.raw(pk.ciphertext_bytes());
  r.expect_done();
  return cts;
}

TEST_F(PaillierPirTest, AnswerRandomizesEachCiphertextOnce) {
  // Every fold cell gets one encrypt(0) blinder and nothing is rerandomized
  // afterwards. At depth 2, level 0 folds ceil(n / d0) groups of one chunk;
  // level 1 folds one group whose chunks are the emitted ciphertexts.
  constexpr std::size_t kN = 50;
  const PaillierPir pir(sk_.public_key(), kN, 2);
  const auto db = make_db(kN, 1u << 30);
  PaillierPir::ClientState state;
  const Bytes q = pir.make_query(sk_, 23, state, prg_);
  obs::Tracer& tracer = obs::Tracer::global();
  tracer.set_enabled(true);
  tracer.reset();
  const Bytes a = pir.answer_u64(db, q, prg_);
  const obs::OpCounts ops = tracer.totals();
  tracer.set_enabled(false);
  tracer.reset();
  const std::size_t level0_cells = (kN + pir.dims()[0] - 1) / pir.dims()[0];
  const std::size_t level1_cells = answer_ciphertexts(sk_.public_key(), a).size();
  EXPECT_EQ(ops[static_cast<std::size_t>(obs::Op::kPaillierEncrypt)],
            level0_cells + level1_cells);
  EXPECT_EQ(ops[static_cast<std::size_t>(obs::Op::kPaillierRerandomize)], 0u);
  EXPECT_EQ(pir.decode_u64(sk_, a), db[23]);
}

TEST_F(PaillierPirTest, AnswersUnderDifferentServerSeedsShareNoCiphertext) {
  // The blinder alone randomizes every emitted ciphertext: two answers to
  // one query differ in each of them and still decode to the same item.
  constexpr std::size_t kN = 30;
  const auto db = make_db(kN, 1000000);
  for (const std::size_t depth : {1u, 2u, 3u}) {
    const PaillierPir pir(sk_.public_key(), kN, depth);
    PaillierPir::ClientState state;
    const Bytes q = pir.make_query(sk_, 13, state, prg_);
    crypto::Prg s1("answer-seed-1"), s2("answer-seed-2");
    const Bytes a1 = pir.answer_u64(db, q, s1);
    const Bytes a2 = pir.answer_u64(db, q, s2);
    const std::vector<Bytes> cts1 = answer_ciphertexts(sk_.public_key(), a1);
    const std::vector<Bytes> cts2 = answer_ciphertexts(sk_.public_key(), a2);
    ASSERT_EQ(cts1.size(), cts2.size()) << "depth " << depth;
    for (std::size_t c = 0; c < cts1.size(); ++c) {
      EXPECT_NE(cts1[c], cts2[c]) << "depth " << depth << ", ciphertext " << c;
    }
    EXPECT_EQ(pir.decode_u64(sk_, a1), db[13]) << "depth " << depth;
    EXPECT_EQ(pir.decode_u64(sk_, a2), db[13]) << "depth " << depth;
  }
}

TEST_F(PaillierPirTest, ValidatesGeometry) {
  EXPECT_THROW(PaillierPir(sk_.public_key(), 0, 1), InvalidArgument);
  EXPECT_THROW(PaillierPir(sk_.public_key(), 8, 0), InvalidArgument);
  EXPECT_THROW(PaillierPir(sk_.public_key(), 8, 5), InvalidArgument);
  const PaillierPir pir(sk_.public_key(), 8, 1);
  PaillierPir::ClientState state;
  EXPECT_THROW(pir.make_query(sk_, 8, state, prg_), InvalidArgument);
}

TEST_F(PaillierPirTest, QueryUnderAnotherKeyThrowsBeforeDrawing) {
  crypto::Prg other_prg("cpir-other-key");
  const he::PaillierPrivateKey other = he::paillier_keygen(other_prg, 256);
  const PaillierPir pir(sk_.public_key(), 20, 2);
  const CuckooBatchPir batch(sk_.public_key(), 50, 3, 1);
  crypto::Prg untouched = prg_;
  PaillierPir::ClientState state;
  EXPECT_THROW(pir.make_query(other, 7, state, prg_), InvalidArgument);
  CuckooBatchPir::ClientState batch_state;
  EXPECT_THROW(batch.make_query(other, {1, 2, 3}, batch_state, prg_), InvalidArgument);
  EXPECT_EQ(prg_.u64(), untouched.u64()) << "a refused query drew from the Prg";
}

// ---- CuckooBatchPir ---------------------------------------------------------

class CuckooBatchPirTest : public ::testing::Test {
 protected:
  CuckooBatchPirTest() : prg_("batch"), sk_(he::paillier_keygen(prg_, 256)) {}

  crypto::Prg prg_;
  he::PaillierPrivateKey sk_;
};

TEST_F(CuckooBatchPirTest, RetrievesBatch) {
  constexpr std::size_t kN = 200, kM = 8;
  const CuckooBatchPir pir(sk_.public_key(), kN, kM, 1);
  const auto db = make_db(kN, 1u << 20);
  const std::vector<std::size_t> indices = {3, 77, 121, 0, 199, 42, 58, 90};
  CuckooBatchPir::ClientState state;
  const Bytes q = pir.make_query(sk_, indices, state, prg_);
  const Bytes a = pir.answer_u64(db, q, prg_);
  const auto got = pir.decode_u64(sk_, a, state);
  ASSERT_EQ(got.size(), kM);
  for (std::size_t j = 0; j < kM; ++j) EXPECT_EQ(got[j], db[indices[j]]) << j;
}

TEST_F(CuckooBatchPirTest, DepthTwoBuckets) {
  constexpr std::size_t kN = 150, kM = 4;
  const CuckooBatchPir pir(sk_.public_key(), kN, kM, 2);
  const auto db = make_db(kN, 1u << 20);
  const std::vector<std::size_t> indices = {10, 20, 30, 140};
  CuckooBatchPir::ClientState state;
  const auto got = pir.decode_u64(
      sk_, pir.answer_u64(db, pir.make_query(sk_, indices, state, prg_), prg_), state);
  for (std::size_t j = 0; j < kM; ++j) EXPECT_EQ(got[j], db[indices[j]]);
}

TEST_F(CuckooBatchPirTest, DuplicateIndicesServedFromDistinctBuckets) {
  constexpr std::size_t kN = 100, kM = 4;
  const CuckooBatchPir pir(sk_.public_key(), kN, kM, 1);
  const auto db = make_db(kN, 1u << 20);
  const std::vector<std::size_t> indices = {55, 55, 7, 99};
  CuckooBatchPir::ClientState state;
  const auto got = pir.decode_u64(
      sk_, pir.answer_u64(db, pir.make_query(sk_, indices, state, prg_), prg_), state);
  for (std::size_t j = 0; j < kM; ++j) EXPECT_EQ(got[j], db[indices[j]]);
}

TEST_F(CuckooBatchPirTest, ByteItemsRoundTrip) {
  constexpr std::size_t kN = 120, kM = 4, kItem = 70;
  const CuckooBatchPir pir(sk_.public_key(), kN, kM, 1);
  std::vector<Bytes> db(kN);
  crypto::Prg data("batch-bytes");
  for (auto& item : db) item = data.bytes(kItem);
  const std::vector<std::size_t> indices = {0, 33, 77, 119};
  CuckooBatchPir::ClientState state;
  const Bytes q = pir.make_query(sk_, indices, state, prg_);
  const Bytes a = pir.answer_bytes(db, kItem, q, prg_);
  const auto got = pir.decode_bytes(sk_, kItem, a, state);
  ASSERT_EQ(got.size(), kM);
  for (std::size_t j = 0; j < kM; ++j) EXPECT_EQ(got[j], db[indices[j]]) << j;
}

TEST_F(CuckooBatchPirTest, Validation) {
  const CuckooBatchPir pir(sk_.public_key(), 50, 3, 1);
  CuckooBatchPir::ClientState state;
  EXPECT_THROW(pir.make_query(sk_, {1, 2}, state, prg_), InvalidArgument);
  EXPECT_THROW(pir.make_query(sk_, {1, 2, 50}, state, prg_), InvalidArgument);
}

// ---- Robust itPIR -----------------------------------------------------------

TEST(PolyItPirRobust, DecodeWithErrorsCorrectsLyingServers) {
  const Fp64 f(Fp64::kMersenne61);
  constexpr std::size_t kErrors = 2;
  const std::size_t k = PolyItPir::min_servers(64, 1) + 2 * kErrors;
  const PolyItPir pir(f, 64, k, 1);
  const auto db = make_db(64, Fp64::kMersenne61);
  // One attempt, so no retry can route around the lies; each lie is an
  // in-field byte flip of one server's answer on the wire.
  net::RobustConfig cfg;
  cfg.max_attempts = 1;
  cfg.byzantine_budget = kErrors;
  const auto run_with_liars = [&](const std::vector<std::size_t>& liars) {
    net::FaultPlan plan;
    for (const std::size_t s : liars) {
      plan.add(net::Direction::kServerToClient, s, 0,
               net::Fault{net::FaultKind::kCorruptByte, 1, 0x40, 0});
    }
    net::SimStarNetwork net(k, net::SimConfig{}, plan);
    crypto::Prg prg("itpir-robust");
    return pir.run_robust(net, db, 17, std::nullopt, prg, cfg);
  };
  const net::RobustResult res = run_with_liars({0, 5});
  EXPECT_EQ(res.value, db[17]);
  EXPECT_EQ(res.report.errors_corrected, kErrors);
  // Three lies with a budget of two: typed error, never a wrong value.
  EXPECT_THROW(run_with_liars({0, 5, 2}), net::RobustProtocolError);
}

TEST(PolyItPirRobust, RunOverStarNetwork) {
  const Fp64 f(Fp64::kMersenne61);
  const PolyItPir pir(f, 64, 7, 1);
  const auto db = make_db(64, Fp64::kMersenne61);
  crypto::Prg prg("itpir-run");
  net::StarNetwork net(7);
  const auto seed = prg.fork_seed("spir");
  EXPECT_EQ(pir.run(net, db, 29, seed, prg), db[29]);
  EXPECT_TRUE(net.idle());
  EXPECT_EQ(net.stats().client_to_server_messages, 7u);
  EXPECT_EQ(net.stats().server_to_client_messages, 7u);
  EXPECT_EQ(net.stats().rounds(), 1.0);
  net::StarNetwork wrong(5);
  EXPECT_THROW(pir.run(wrong, db, 29, seed, prg), InvalidArgument);
}

TEST(PolyItPirRobust, RunRobustSurvivesCrashAndLie) {
  const Fp64 f(Fp64::kMersenne61);
  // e = 1, c = 1: k = l*t + 1 + 2 + 1 = 10 for n = 64, t = 1.
  const std::size_t k = PolyItPir::min_servers(64, 1) + 3;
  const PolyItPir pir(f, 64, k, 1);
  const auto db = make_db(64, Fp64::kMersenne61);
  net::FaultPlan plan;
  plan.crash_after(2, 0);  // server 2 dead on arrival
  plan.add(net::Direction::kServerToClient, 6, 0,
           net::Fault{net::FaultKind::kCorruptByte, 1, 0x40, 0});  // server 6 lies
  net::SimStarNetwork net(k, net::SimConfig{}, plan);
  crypto::Prg prg("itpir-run-robust");
  const auto seed = prg.fork_seed("spir");
  const net::RobustResult res = pir.run_robust(net, db, 29, seed, prg);
  EXPECT_EQ(res.value, db[29]);
  EXPECT_TRUE(res.report.success);
  EXPECT_EQ(res.report.verdicts[2].fate, net::ServerFate::kUnavailable);
  EXPECT_EQ(res.report.verdicts[6].fate, net::ServerFate::kCorrected);
  EXPECT_EQ(res.report.erasures, 1u);
  EXPECT_EQ(res.report.errors_corrected, 1u);
  EXPECT_TRUE(net.idle());
}

}  // namespace
}  // namespace spfe::pir
