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
//     Prg seeded with S.
//
// Concurrency: `draw`/`encrypt` and `refill` may race freely. When the pool
// is stocked a draw is a mutex-guarded pop (never blocks on crypto work).
// While a refill batch is in flight, a draw that finds the pool empty waits
// for the batch rather than skipping ahead in the randomness stream; with
// no refill in flight it falls back to computing the factor synchronously
// (still in stream order — the fallback serializes on the pool mutex).
// Refill fans its modexps out across the global ThreadPool (SPFE_THREADS).
//
// FixedBaseCache: process-wide cache of constant-time fixed-base comb
// tables keyed by (modulus, base, max exponent bits), so repeated
// exponentiations of a fixed public base under secret exponents (the OT
// group generator) pay the table build once per process instead of a full
// square-and-multiply chain per call. Evaluation is constant time in the
// exponent value: every 4-bit window is processed with a masked full-table
// lookup and an unconditional Montgomery multiply, mirroring
// MontgomeryContext::pow (results are byte-identical to it).
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <tuple>

#include "bignum/bigint.h"
#include "bignum/modarith.h"
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

// Constant-time fixed-base comb table: per 4-bit window j it stores
// base^(d * 16^j) for d in [0, 16), all in Montgomery form. pow() processes
// ceil(bit_length/4) windows, each with a masked full-table lookup and an
// unconditional mont_mul — no squarings, no zero-digit skips — so it is
// safe for secret exponents and returns exactly MontgomeryContext::pow's
// canonical result. The table owns its MontgomeryContext copy.
class CtFixedBaseTable {
 public:
  CtFixedBaseTable(const bignum::BigInt& modulus, const bignum::BigInt& base,
                   std::size_t max_exp_bits);

  // base^exp mod modulus; exp in [0, 2^max_exp_bits). Byte-identical to
  // MontgomeryContext(modulus).pow(base, exp). Constant time in the
  // exponent value (its bit length is public by policy, as in pow).
  bignum::BigInt pow(const bignum::BigInt& exp) const;

  std::size_t max_exp_bits() const { return windows_ * 4; }

 private:
  bignum::MontgomeryContext ctx_;
  std::size_t windows_;
  // window_[j] holds 16 contiguous entries of ctx_.limbs() limbs each.
  std::vector<std::vector<std::uint64_t>> window_;
};

// Process-wide cache of CtFixedBaseTable keyed by (modulus, base, max exp
// bits). First get() for a key builds the table (kFbTableBuild, with a
// "precomp.fbtable_build" span); later gets share it (kFbTableHit).
class FixedBaseCache {
 public:
  static FixedBaseCache& global();

  std::shared_ptr<const CtFixedBaseTable> get(const bignum::BigInt& modulus,
                                              const bignum::BigInt& base,
                                              std::size_t max_exp_bits);

  std::size_t size() const;
  void clear();  // tests only

 private:
  mutable std::mutex mu_;
  std::map<std::tuple<bignum::BigInt, bignum::BigInt, std::size_t>,
           std::shared_ptr<const CtFixedBaseTable>>
      tables_;
};

// Optional bundle of client-side precomputation handles threaded through
// protocol entry points. Null members mean "compute online" — passing a
// default-constructed ClientPrecomp reproduces the unpooled behaviour
// exactly. Pools are checked against the protocol's keys at use.
struct ClientPrecomp {
  PaillierRandomnessPool* paillier = nullptr;  // client-key encryption factors
};

}  // namespace spfe::he
