#include "he/precomp.h"

#include <utility>
#include <vector>

#include "common/error.h"
#include "common/parallel.h"
#include "obs/obs.h"

namespace spfe::he {

using bignum::BigInt;

// --- PaillierRandomnessPool --------------------------------------------------

PaillierRandomnessPool::PaillierRandomnessPool(const PaillierPublicKey& pk, crypto::Prg prg,
                                               PoolConfig cfg)
    : pk_(pk), cfg_(cfg), prg_(std::move(prg)) {
  if (cfg_.capacity == 0) throw InvalidArgument("PaillierRandomnessPool: zero capacity");
}

std::size_t PaillierRandomnessPool::refill() {
  // Draw the batch's randomness serially under the lock (stream order),
  // then release it for the expensive modexps so stocked draws keep flowing.
  std::vector<BigInt> rs;
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (refill_inflight_ || ready_.size() >= cfg_.capacity) return 0;
    rs.reserve(cfg_.capacity - ready_.size());
    for (std::size_t i = ready_.size(); i < cfg_.capacity; ++i) {
      rs.push_back(pk_.random_unit(prg_));
    }
    refill_inflight_ = true;
  }
  obs::Span span("precomp.refill");
  span.note("paillier factors=" + std::to_string(rs.size()));
  std::vector<BigInt> factors(rs.size());
  common::parallel_for(rs.size(), [&](std::size_t i) {
    factors[i] = pk_.encryption_factor(rs[i]);
  });
  {
    std::lock_guard<std::mutex> lk(mu_);
    for (BigInt& f : factors) ready_.push_back(std::move(f));
    refill_inflight_ = false;
    stats_.refills += 1;
    stats_.precomputed += factors.size();
  }
  cv_.notify_all();
  obs::count(obs::Op::kPoolRefill);
  return rs.size();
}

BigInt PaillierRandomnessPool::next_factor() {
  std::unique_lock<std::mutex> lk(mu_);
  ++stats_.draws;
  // An in-flight refill batch holds randomness drawn *before* ours would
  // be: wait for it instead of computing out of stream order.
  cv_.wait(lk, [&] { return !ready_.empty() || !refill_inflight_; });
  if (!ready_.empty()) {
    ++stats_.hits;
    obs::count(obs::Op::kPoolHit);
    BigInt f = std::move(ready_.front());
    ready_.pop_front();
    return f;
  }
  // Miss: synchronous fallback under the lock, so concurrent misses consume
  // the stream in a serial order.
  ++stats_.misses;
  obs::count(obs::Op::kPoolMiss);
  return pk_.encryption_factor(pk_.random_unit(prg_));
}

BigInt PaillierRandomnessPool::encrypt(const BigInt& m) {
  return pk_.encrypt_with_factor(m, next_factor());
}

BigInt PaillierRandomnessPool::rerandomize(const BigInt& c) {
  return pk_.rerandomize_with_factor(c, next_factor());
}

std::size_t PaillierRandomnessPool::stocked() const {
  std::lock_guard<std::mutex> lk(mu_);
  return ready_.size();
}

PoolStats PaillierRandomnessPool::stats() const {
  std::lock_guard<std::mutex> lk(mu_);
  return stats_;
}

}  // namespace spfe::he
