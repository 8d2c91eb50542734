#include "he/precomp.h"

#include <algorithm>
#include <array>
#include <utility>
#include <vector>

#include "common/error.h"
#include "common/parallel.h"
#include "common/secret.h"
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

// --- CtFixedBaseTable --------------------------------------------------------

CtFixedBaseTable::CtFixedBaseTable(const BigInt& modulus, const BigInt& base,
                                   std::size_t max_exp_bits)
    : ctx_(modulus), windows_((std::max<std::size_t>(max_exp_bits, 1) + 3) / 4) {
  using MontVec = std::vector<std::uint64_t>;
  const std::size_t k = ctx_.limbs();
  // Comb anchors g_j = base^(16^j): a serial squaring chain, then each
  // window's 16 entries g_j^d fill independently across the thread pool.
  std::vector<MontVec> anchors(windows_);
  anchors[0] = ctx_.to_mont(base.mod_floor(modulus));
  for (std::size_t j = 1; j < windows_; ++j) {
    MontVec p = anchors[j - 1];
    for (int s = 0; s < 4; ++s) p = ctx_.mont_sqr(p);
    anchors[j] = std::move(p);
  }
  window_.resize(windows_);
  common::parallel_for(windows_, [&](std::size_t j) {
    std::array<MontVec, 16> entries;
    entries[0] = ctx_.mont_one();
    entries[1] = anchors[j];
    for (std::size_t d = 2; d < 16; ++d) {
      entries[d] = (d % 2 == 0) ? ctx_.mont_sqr(entries[d / 2])
                                : ctx_.mont_mul(entries[d - 1], anchors[j]);
    }
    std::vector<std::uint64_t> flat(16 * k);
    for (std::size_t d = 0; d < 16; ++d) {
      std::copy(entries[d].begin(), entries[d].end(), flat.begin() + d * k);
    }
    window_[j] = std::move(flat);
  });
}

BigInt CtFixedBaseTable::pow(const BigInt& /*secret*/ exp) const {
  if (exp.is_negative()) throw InvalidArgument("CtFixedBaseTable: negative exponent");
  const std::size_t bits = exp.bit_length();
  if (bits > windows_ * 4) {
    throw InvalidArgument("CtFixedBaseTable: exponent exceeds table capacity");
  }
  // The cached comb is still one modular exponentiation to the caller, so
  // it meters like MontgomeryContext::pow (whose result it reproduces).
  obs::count(obs::Op::kModExp);
  if (exp.is_zero()) return BigInt(1).mod_floor(ctx_.modulus());
  const std::size_t used = (bits + 3) / 4;  // public, as in mont pow
  const std::size_t k = ctx_.limbs();
  const std::vector<std::uint64_t>& el = exp.limbs();
  std::vector<std::uint64_t> acc = ctx_.mont_one();
  std::vector<std::uint64_t> entry(k);
  // Every window pays one masked full-table scan and one unconditional
  // multiply (digit 0 multiplies by the Montgomery identity) — no squarings
  // and no value-dependent skips.
  // SPFE_CT_BEGIN(fbtable_pow)
  for (std::size_t j = 0; j < used; ++j) {
    // 4-bit windows never straddle a limb; the limb index is the public
    // window position.
    const std::uint64_t digit = (el[(4 * j) / 64] >> ((4 * j) % 64)) & 0xf;
    const std::vector<std::uint64_t>& flat = window_[j];
    for (std::size_t i = 0; i < k; ++i) entry[i] = 0;
    for (std::size_t e = 0; e < 16; ++e) {
      const std::uint64_t m = common::ct_eq_u64(e, digit);
      for (std::size_t i = 0; i < k; ++i) entry[i] |= m & flat[e * k + i];
    }
    acc = ctx_.mont_mul(acc, entry);
  }
  // SPFE_CT_END
  return ctx_.from_mont(acc);
}

// --- FixedBaseCache ----------------------------------------------------------

FixedBaseCache& FixedBaseCache::global() {
  static FixedBaseCache cache;
  return cache;
}

std::shared_ptr<const CtFixedBaseTable> FixedBaseCache::get(const BigInt& modulus,
                                                            const BigInt& base,
                                                            std::size_t max_exp_bits) {
  // Key on the window count so requests within the same 4-bit round-up
  // share one table.
  const std::size_t windows = (std::max<std::size_t>(max_exp_bits, 1) + 3) / 4;
  const auto key = std::make_tuple(modulus, base, windows);
  {
    std::lock_guard<std::mutex> lk(mu_);
    const auto it = tables_.find(key);
    if (it != tables_.end()) {
      obs::count(obs::Op::kFbTableHit);
      return it->second;
    }
  }
  // Build outside the lock: a long build must not serialize unrelated keys.
  // A racing build of the same key keeps the first insertion.
  obs::Span span("precomp.fbtable_build");
  span.note("bits=" + std::to_string(windows * 4));
  auto table = std::make_shared<const CtFixedBaseTable>(modulus, base, windows * 4);
  std::lock_guard<std::mutex> lk(mu_);
  const auto [it, inserted] = tables_.emplace(key, std::move(table));
  obs::count(inserted ? obs::Op::kFbTableBuild : obs::Op::kFbTableHit);
  return it->second;
}

std::size_t FixedBaseCache::size() const {
  std::lock_guard<std::mutex> lk(mu_);
  return tables_.size();
}

void FixedBaseCache::clear() {
  std::lock_guard<std::mutex> lk(mu_);
  tables_.clear();
}

}  // namespace spfe::he
