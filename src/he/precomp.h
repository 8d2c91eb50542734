// Offline/online precomputation for the client-side public-key hot paths
// (the Naor–Nisan offline/online split, cs/0109011).
//
// A Paillier encryption splits into a message-independent part and a cheap
// message-dependent part: E(m, r) = (1 + mN) * r^N mod N^2, where r^N is
// independent of m. The expensive factor (one |N|-bit modexp) can therefore
// be computed *offline*, pooled, and consumed online with a single modular
// multiplication each — turning an ~11 s depth-1 cPIR query generation at
// n = 4096 into milliseconds once the pool is warm. (GM encryption costs two
// modular multiplications and is not pooled.)
//
// Determinism contract (tested in tests/precomp_test.cpp):
//   * A pool owns its own seeded Prg. The i-th factor it hands out is
//     always derived from the i-th `random_unit` draw of that stream —
//     regardless of pool warmth, refill timing, batch sizes, or thread
//     count. Pooled transcripts depend only on seeds.
//   * A consumer whose only PRG use is encryption randomness (e.g.
//     PaillierPir::make_query) therefore produces *byte-identical* output
//     whether it encrypts through a pool seeded with S or directly from a
//     Prg seeded with S (the key holder's PaillierPrivateKey::encrypt,
//     whose CRT factor equals the pool's public-key one).
//
// The pool holds only the public key, so its refill computes each factor
// on the public path; handing it the private key would make the refill
// ~1.9x cheaper too (paillier.h), with the same stream.
//
// Concurrency: `draw`/`encrypt` and `refill` may race freely. When the pool
// is stocked a draw is a mutex-guarded pop (never blocks on crypto work).
// While a refill batch is in flight, a draw that finds the pool empty waits
// for the batch rather than skipping ahead in the randomness stream; with
// no refill in flight it falls back to computing the factor synchronously
// (still in stream order — the fallback serializes on the pool mutex).
// Refill fans its modexps out across the global ThreadPool (SPFE_THREADS).
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>

#include "bignum/bigint.h"
#include "crypto/prg.h"
#include "he/paillier.h"

namespace spfe::he {

struct PoolConfig {
  // Maximum factors stocked; refill() tops the pool up to this level.
  std::size_t capacity = 256;
};

// Monotonic per-pool counters. Invariant: hits + misses == draws (asserted
// by tests and mirrored in the global obs counters kPoolHit/kPoolMiss).
struct PoolStats {
  std::uint64_t draws = 0;
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t refills = 0;       // completed refill batches
  std::uint64_t precomputed = 0;   // factors ever computed offline
};

// Pool of Paillier encryption factors r^N mod N^2 for one public key. One
// factor encrypts (or rerandomizes) exactly one ciphertext.
class PaillierRandomnessPool {
 public:
  // The pool copies `pk` (no lifetime coupling) and takes ownership of the
  // randomness stream.
  PaillierRandomnessPool(const PaillierPublicKey& pk, crypto::Prg prg, PoolConfig cfg = {});

  const PaillierPublicKey& public_key() const { return pk_; }

  // Offline phase: tops the pool up to capacity, fanning the modexps across
  // the global thread pool. Returns the number of factors computed (0 if
  // already full or another refill is in flight). Safe to call while other
  // threads draw.
  std::size_t refill();

  // Online phase: next factor in stream order. Stocked: one guarded pop.
  // Empty: waits for an in-flight refill batch, else computes synchronously.
  bignum::BigInt next_factor();

  // encrypt(m) == pk.encrypt(m, prg) for the pool's stream; one factor.
  bignum::BigInt encrypt(const bignum::BigInt& m);
  // rerandomize(c) == pk.rerandomize(c, prg) for the pool's stream.
  bignum::BigInt rerandomize(const bignum::BigInt& c);

  std::size_t stocked() const;
  PoolStats stats() const;

 private:
  PaillierPublicKey pk_;
  PoolConfig cfg_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<bignum::BigInt> ready_;  // factors, oldest (stream order) first
  bool refill_inflight_ = false;
  crypto::Prg prg_;
  PoolStats stats_;
};

// Optional bundle of client-side precomputation handles threaded through
// protocol entry points. Null members mean "compute online" — passing a
// default-constructed ClientPrecomp reproduces the unpooled behaviour
// exactly. Pools are checked against the protocol's keys at use.
struct ClientPrecomp {
  PaillierRandomnessPool* paillier = nullptr;  // client-key encryption factors
};

}  // namespace spfe::he
