// Tests for the offline/online precomputation layer (he/precomp.h):
// randomness-pool determinism (the byte-identity contract), exhaustion
// fallback, concurrency, stats invariants, and the constant-time fixed-base
// table cache.
#include <gtest/gtest.h>

#include <algorithm>
#include <thread>
#include <vector>

#include "common/error.h"
#include "common/parallel.h"
#include "he/precomp.h"
#include "obs/obs.h"
#include "pir/cpir.h"

namespace spfe::he {
namespace {

using bignum::BigInt;

class PrecompTest : public ::testing::Test {
 protected:
  // 256-bit keys keep the suite fast; bench_spir covers 512/1024.
  PrecompTest() : prg_("precomp-test"), sk_(paillier_keygen(prg_, 256)) {}

  crypto::Prg prg_;
  PaillierPrivateKey sk_;
};

// The core contract: a pool seeded with S encrypts exactly like a Prg
// seeded with S — cold (every draw a synchronous miss), warm (every draw a
// stocked hit), and mixed.
TEST_F(PrecompTest, PooledEncryptMatchesDirectPrg) {
  const auto& pk = sk_.public_key();
  constexpr std::size_t kCount = 12;

  crypto::Prg direct("pool-seed");
  std::vector<BigInt> expected;
  for (std::size_t i = 0; i < kCount; ++i) {
    expected.push_back(pk.encrypt(BigInt(i * 7 + 1), direct));
  }

  PaillierRandomnessPool cold(pk, crypto::Prg("pool-seed"));
  for (std::size_t i = 0; i < kCount; ++i) {
    EXPECT_EQ(cold.encrypt(BigInt(i * 7 + 1)), expected[i]) << "cold draw " << i;
  }
  EXPECT_EQ(cold.stats().hits, 0u);
  EXPECT_EQ(cold.stats().misses, kCount);

  PoolConfig cfg;
  cfg.capacity = kCount;
  PaillierRandomnessPool warm(pk, crypto::Prg("pool-seed"), cfg);
  EXPECT_EQ(warm.refill(), kCount);
  for (std::size_t i = 0; i < kCount; ++i) {
    EXPECT_EQ(warm.encrypt(BigInt(i * 7 + 1)), expected[i]) << "warm draw " << i;
  }
  EXPECT_EQ(warm.stats().hits, kCount);
  EXPECT_EQ(warm.stats().misses, 0u);
}

// Exhaustion: a pool smaller than the demand serves its stock, then falls
// back to synchronous computation — still in stream order, so the outputs
// never diverge from the direct-Prg transcript.
TEST_F(PrecompTest, ExhaustedPoolFallsBackInStreamOrder) {
  const auto& pk = sk_.public_key();
  constexpr std::size_t kCapacity = 4;
  constexpr std::size_t kCount = 11;

  crypto::Prg direct("exhaust-seed");
  PoolConfig cfg;
  cfg.capacity = kCapacity;
  PaillierRandomnessPool pool(pk, crypto::Prg("exhaust-seed"), cfg);
  EXPECT_EQ(pool.refill(), kCapacity);
  EXPECT_EQ(pool.stocked(), kCapacity);

  for (std::size_t i = 0; i < kCount; ++i) {
    EXPECT_EQ(pool.encrypt(BigInt(i)), pk.encrypt(BigInt(i), direct)) << "draw " << i;
  }
  const PoolStats st = pool.stats();
  EXPECT_EQ(st.draws, kCount);
  EXPECT_EQ(st.hits, kCapacity);
  EXPECT_EQ(st.misses, kCount - kCapacity);
  EXPECT_EQ(st.hits + st.misses, st.draws);
  EXPECT_EQ(st.precomputed, kCapacity);
}

TEST_F(PrecompTest, RefillIsIdempotentWhenFull) {
  const auto& pk = sk_.public_key();
  PoolConfig cfg;
  cfg.capacity = 3;
  PaillierRandomnessPool pool(pk, crypto::Prg("full-seed"), cfg);
  EXPECT_EQ(pool.refill(), 3u);
  EXPECT_EQ(pool.refill(), 0u);  // already full
  EXPECT_EQ(pool.stocked(), 3u);
  (void)pool.next_factor();
  EXPECT_EQ(pool.refill(), 1u);  // tops back up to capacity
  EXPECT_EQ(pool.stats().refills, 2u);
}

// Rerandomization draws from the same factor stream.
TEST_F(PrecompTest, PooledRerandomizeMatchesDirectPrg) {
  const auto& pk = sk_.public_key();
  const BigInt c = pk.encrypt(BigInt(777), prg_);

  crypto::Prg direct("rr-seed");
  std::vector<BigInt> cts_direct(6, c);
  for (auto& ct : cts_direct) ct = pk.rerandomize(ct, direct);

  PaillierRandomnessPool pool(pk, crypto::Prg("rr-seed"));
  std::vector<BigInt> cts_pool(6, c);
  for (auto& ct : cts_pool) ct = pool.rerandomize(ct);
  EXPECT_EQ(cts_pool, cts_direct);
  for (const auto& ct : cts_pool) EXPECT_EQ(sk_.decrypt(ct), BigInt(777));
}

// Concurrent draws against a racing refill: every handed-out factor must
// come from the pool's stream (no duplicates, no inventions). Order across
// threads is scheduler-dependent, so compare as multisets against the first
// kTotal factors of an identically seeded reference stream.
TEST_F(PrecompTest, ConcurrentDrawAndRefillServeTheStream) {
  const auto& pk = sk_.public_key();
  constexpr std::size_t kThreads = 8;
  constexpr std::size_t kPerThread = 8;
  constexpr std::size_t kTotal = kThreads * kPerThread;

  crypto::Prg ref("race-seed");
  std::vector<BigInt> expected;
  for (std::size_t i = 0; i < kTotal; ++i) {
    expected.push_back(pk.encryption_factor(pk.random_unit(ref)));
  }

  PoolConfig cfg;
  cfg.capacity = 16;
  PaillierRandomnessPool pool(pk, crypto::Prg("race-seed"), cfg);
  std::vector<std::vector<BigInt>> drawn(kThreads);
  std::vector<std::thread> workers;
  workers.reserve(kThreads + 1);
  for (std::size_t t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      for (std::size_t i = 0; i < kPerThread; ++i) drawn[t].push_back(pool.next_factor());
    });
  }
  workers.emplace_back([&] {
    for (int i = 0; i < 16; ++i) pool.refill();
  });
  for (auto& w : workers) w.join();

  std::vector<BigInt> got;
  for (const auto& d : drawn) got.insert(got.end(), d.begin(), d.end());
  ASSERT_EQ(got.size(), kTotal);
  std::sort(got.begin(), got.end());
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(got, expected);

  const PoolStats st = pool.stats();
  EXPECT_EQ(st.draws, kTotal);
  EXPECT_EQ(st.hits + st.misses, st.draws);
}

// The consumer-level contract from ISSUE/DESIGN: PaillierPir::make_query's
// only PRG use is encryption randomness, so the pooled overload emits
// byte-identical queries — cold pool, warm pool, or no pool at all.
TEST_F(PrecompTest, PooledCpirQueryIsByteIdentical) {
  const auto& pk = sk_.public_key();
  constexpr std::size_t kN = 64;
  const pir::PaillierPir p(pk, kN, 2);

  pir::PaillierPir::ClientState st_plain, st_cold, st_warm;
  crypto::Prg direct("query-seed");
  const Bytes q_plain = p.make_query(kN / 3, st_plain, direct);

  PaillierRandomnessPool cold(pk, crypto::Prg("query-seed"));
  EXPECT_EQ(p.make_query(kN / 3, st_cold, cold), q_plain);

  PoolConfig cfg;
  cfg.capacity = 64;
  PaillierRandomnessPool warm(pk, crypto::Prg("query-seed"), cfg);
  warm.refill();
  EXPECT_EQ(p.make_query(kN / 3, st_warm, warm), q_plain);

  // And the query still decodes.
  std::vector<std::uint64_t> db(kN);
  for (std::size_t i = 0; i < kN; ++i) db[i] = i * 3 + 5;
  const Bytes a = p.answer_u64(db, q_plain, prg_);
  EXPECT_EQ(p.decode_u64(sk_, a), db[kN / 3]);
}

TEST_F(PrecompTest, PooledCpirQueryRejectsKeyMismatch) {
  crypto::Prg kprg("other-key");
  const PaillierPrivateKey other = paillier_keygen(kprg, 256);
  const pir::PaillierPir p(sk_.public_key(), 16, 1);
  pir::PaillierPir::ClientState state;
  PaillierRandomnessPool pool(other.public_key(), crypto::Prg("s"));
  EXPECT_THROW((void)p.make_query(3, state, pool), InvalidArgument);
}

// Pool draws are metered: hits + misses recorded in the global counters
// match the pool's own stats.
TEST_F(PrecompTest, PoolDrawsAreCounted) {
  const auto& pk = sk_.public_key();
  obs::Tracer::global().set_enabled(true);
  obs::Tracer::global().reset();

  PoolConfig cfg;
  cfg.capacity = 3;
  PaillierRandomnessPool pool(pk, crypto::Prg("count-seed"), cfg);
  pool.refill();
  for (int i = 0; i < 5; ++i) (void)pool.next_factor();

  const obs::OpCounts totals = obs::Tracer::global().totals();
  obs::Tracer::global().set_enabled(false);
  EXPECT_EQ(totals[static_cast<std::size_t>(obs::Op::kPoolHit)], 3u);
  EXPECT_EQ(totals[static_cast<std::size_t>(obs::Op::kPoolMiss)], 2u);
  EXPECT_EQ(totals[static_cast<std::size_t>(obs::Op::kPoolRefill)], 1u);
}

class FixedBaseTest : public ::testing::Test {
 protected:
  FixedBaseTest() : prg_("fbtable-test") {}

  crypto::Prg prg_;
};

TEST_F(FixedBaseTest, TablePowMatchesMontgomeryPow) {
  // An odd modulus and a fixed base; 96-bit exponent space.
  const BigInt p = BigInt::from_hex("f48790ef8b185181709d7d84c42f22e1f82a6bb685eb1ecf"
                                    "43318fbded9c101d");  // odd, not necessarily prime
  const BigInt g(4);
  const std::size_t kBits = 96;
  const bignum::MontgomeryContext ctx(p);
  const CtFixedBaseTable table(p, g, kBits);
  EXPECT_GE(table.max_exp_bits(), kBits);

  std::vector<BigInt> exps = {BigInt(0), BigInt(1), BigInt(2), BigInt(15), BigInt(16),
                              BigInt(17), (BigInt(1) << kBits) - BigInt(1)};
  for (int i = 0; i < 16; ++i) {
    exps.push_back(BigInt::random_below(prg_, BigInt(1) << kBits));
  }
  for (const BigInt& e : exps) {
    EXPECT_EQ(table.pow(e), ctx.pow(g, e)) << "exp " << e.to_hex();
  }
}

TEST_F(FixedBaseTest, CacheSharesTablesAndCounts) {
  const BigInt p = BigInt::from_hex("9098966ce2c4aa7634325f5726fc855cc75d882818e11ed6"
                                    "12178ce6707f361f");
  const BigInt g(9);

  obs::Tracer::global().set_enabled(true);
  obs::Tracer::global().reset();
  FixedBaseCache::global().clear();

  const auto a = FixedBaseCache::global().get(p, g, 64);
  const auto b = FixedBaseCache::global().get(p, g, 64);
  EXPECT_EQ(a.get(), b.get());  // shared, not rebuilt
  const auto c = FixedBaseCache::global().get(p, g, 128);  // different key
  EXPECT_NE(a.get(), c.get());

  const obs::OpCounts totals = obs::Tracer::global().totals();
  obs::Tracer::global().set_enabled(false);
  EXPECT_EQ(totals[static_cast<std::size_t>(obs::Op::kFbTableBuild)], 2u);
  EXPECT_EQ(totals[static_cast<std::size_t>(obs::Op::kFbTableHit)], 1u);

  const bignum::MontgomeryContext ctx(p);
  EXPECT_EQ(a->pow(BigInt(123456789)), ctx.pow(g, BigInt(123456789)));
}

}  // namespace
}  // namespace spfe::he
