#include "pir/batch_pir.h"

#include <algorithm>
#include <cmath>

#include "common/error.h"
#include "common/serialize.h"

namespace spfe::pir {
namespace {

// splitmix64 — a public-domain mixer; deterministic across both parties.
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace

std::vector<std::size_t> CuckooParams::buckets_of(std::size_t index) const {
  std::vector<std::size_t> out;
  out.reserve(kNumHashes);
  for (std::size_t h = 0; h < kNumHashes; ++h) {
    const std::size_t b = static_cast<std::size_t>(
        mix64(hash_seed ^ mix64(index * kNumHashes + h)) % num_buckets);
    if (std::find(out.begin(), out.end(), b) == out.end()) out.push_back(b);
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<std::vector<std::size_t>> CuckooParams::all_bucket_contents() const {
  std::vector<std::vector<std::size_t>> out(num_buckets);
  for (std::size_t i = 0; i < n; ++i) {
    for (const std::size_t b : buckets_of(i)) out[b].push_back(i);
  }
  return out;  // each ascending by construction
}

std::vector<std::size_t> CuckooParams::bucket_contents(std::size_t b) const {
  std::vector<std::size_t> out;
  for (std::size_t i = 0; i < n; ++i) {
    const auto bs = buckets_of(i);
    if (std::find(bs.begin(), bs.end(), b) != bs.end()) out.push_back(i);
  }
  return out;  // ascending by construction
}

std::size_t CuckooParams::max_load() const {
  std::size_t cap = 1;
  for (const auto& bucket : all_bucket_contents()) cap = std::max(cap, bucket.size());
  return cap;
}

std::size_t CuckooParams::bucket_capacity() const {
  // Mean load mu = kNumHashes * n / B; allow a generous balls-into-bins
  // deviation so that rejection (reseeding) is rare.
  const double mu =
      static_cast<double>(kNumHashes) * static_cast<double>(n) / static_cast<double>(num_buckets);
  const double slack = 4.0 * std::sqrt(mu * (1.0 + std::log(static_cast<double>(num_buckets))));
  return static_cast<std::size_t>(mu + slack) + 8;
}

CuckooBatchPir::CuckooBatchPir(he::PaillierPublicKey pk, std::size_t n, std::size_t m,
                               std::size_t depth)
    : pk_(std::move(pk)), m_(m), depth_(depth) {
  if (n == 0 || m == 0) throw InvalidArgument("CuckooBatchPir: empty batch or database");
  params_.n = n;
  params_.num_buckets = std::max<std::size_t>(2 * m, 4);
}

std::vector<std::size_t> CuckooBatchPir::place(const CuckooParams& params,
                                               const std::vector<std::size_t>& indices,
                                               crypto::Prg& prg) {
  // Random-walk cuckoo insertion of query slots into buckets.
  std::vector<std::optional<std::size_t>> owner(params.num_buckets);  // bucket -> slot
  std::vector<std::size_t> slot_bucket(indices.size(), SIZE_MAX);
  for (std::size_t j = 0; j < indices.size(); ++j) {
    std::size_t slot = j;
    for (std::size_t steps = 0; steps < 64 * (indices.size() + 1); ++steps) {
      const auto candidates = params.buckets_of(indices[slot]);
      // Prefer a free candidate bucket.
      bool placed = false;
      for (const std::size_t b : candidates) {
        if (!owner[b].has_value()) {
          owner[b] = slot;
          slot_bucket[slot] = b;
          placed = true;
          break;
        }
      }
      if (placed) break;
      // Evict a random occupant.
      const std::size_t b = candidates[prg.uniform(candidates.size())];
      const std::size_t evicted = *owner[b];
      owner[b] = slot;
      slot_bucket[slot] = b;
      slot_bucket[evicted] = SIZE_MAX;
      slot = evicted;
      if (steps + 1 == 64 * (indices.size() + 1)) {
        throw ProtocolError("CuckooBatchPir: placement failed; re-seed and retry");
      }
    }
  }
  return slot_bucket;
}

Bytes CuckooBatchPir::make_query(const he::PaillierPrivateKey& sk,
                                 const std::vector<std::size_t>& indices, ClientState& state,
                                 crypto::Prg& prg, he::PaillierRandomnessPool* pool) const {
  if (!(sk.public_key() == pk_)) {
    throw InvalidArgument("CuckooBatchPir: private key is for a different public key");
  }
  if (pool != nullptr && !(pool->public_key() == pk_)) pool = nullptr;
  if (indices.size() != m_) throw InvalidArgument("CuckooBatchPir: wrong batch size");
  for (const std::size_t i : indices) {
    if (i >= params_.n) throw InvalidArgument("CuckooBatchPir: index out of range");
  }
  state.params = params_;
  // Retry with fresh public seeds until placement succeeds *and* the seed's
  // max bucket load fits the deterministic capacity bound (both w.h.p. on
  // the first try at B = 2m with 3 hashes).
  for (int attempt = 0;; ++attempt) {
    state.params.hash_seed = prg.u64();
    try {
      if (state.params.max_load() > state.params.bucket_capacity()) {
        throw ProtocolError("CuckooBatchPir: bucket overflow; re-seed");
      }
      state.bucket_for_query = place(state.params, indices, prg);
      break;
    } catch (const ProtocolError&) {
      if (attempt >= 16) throw;
    }
  }

  const std::size_t cap = state.params.bucket_capacity();
  const PaillierPir bucket_pir(pk_, cap, depth_);

  // Which query slot does each bucket serve (if any)?
  std::vector<std::optional<std::size_t>> bucket_slot(state.params.num_buckets);
  for (std::size_t j = 0; j < m_; ++j) bucket_slot[state.bucket_for_query[j]] = j;

  state.pir_states.assign(state.params.num_buckets, {});
  Writer w;
  w.u64(state.params.hash_seed);
  for (std::size_t b = 0; b < state.params.num_buckets; ++b) {
    std::size_t position = 0;  // dummy queries fetch slot 0
    if (bucket_slot[b].has_value()) {
      const std::size_t want = indices[*bucket_slot[b]];
      const auto contents = state.params.bucket_contents(b);
      const auto it = std::find(contents.begin(), contents.end(), want);
      if (it == contents.end()) throw ProtocolError("CuckooBatchPir: placement inconsistent");
      position = static_cast<std::size_t>(it - contents.begin());
    }
    w.bytes(pool != nullptr ? bucket_pir.make_query(position, state.pir_states[b], *pool)
                            : bucket_pir.make_query(sk, position, state.pir_states[b], prg));
  }
  return w.take();
}

Bytes CuckooBatchPir::answer_u64(std::span<const std::uint64_t> database, BytesView query,
                                 crypto::Prg& prg) const {
  if (database.size() != params_.n) {
    throw InvalidArgument("CuckooBatchPir: database size mismatch");
  }
  Reader r(query);
  CuckooParams params = params_;
  params.hash_seed = r.u64();
  const std::size_t cap = params.bucket_capacity();
  const PaillierPir bucket_pir(pk_, cap, depth_);

  const auto all_contents = params.all_bucket_contents();
  Writer w;
  for (std::size_t b = 0; b < params.num_buckets; ++b) {
    const Bytes q = r.bytes();
    std::vector<std::uint64_t> bucket(cap, 0);
    const auto& contents = all_contents[b];
    if (contents.size() > cap) {
      throw ProtocolError("CuckooBatchPir: seed exceeds capacity bound");
    }
    for (std::size_t pos = 0; pos < contents.size(); ++pos) {
      bucket[pos] = database[contents[pos]];
    }
    w.bytes(bucket_pir.answer_u64(bucket, q, prg));
  }
  r.expect_done();
  return w.take();
}

Bytes CuckooBatchPir::answer_bytes(std::span<const Bytes> database, std::size_t item_bytes,
                                   BytesView query, crypto::Prg& prg) const {
  if (database.size() != params_.n) {
    throw InvalidArgument("CuckooBatchPir: database size mismatch");
  }
  Reader r(query);
  CuckooParams params = params_;
  params.hash_seed = r.u64();
  const std::size_t cap = params.bucket_capacity();
  const PaillierPir bucket_pir(pk_, cap, depth_);

  const auto all_contents = params.all_bucket_contents();
  const Bytes zero_item(item_bytes, 0);
  Writer w;
  for (std::size_t b = 0; b < params.num_buckets; ++b) {
    const Bytes q = r.bytes();
    std::vector<Bytes> bucket(cap, zero_item);
    const auto& contents = all_contents[b];
    if (contents.size() > cap) {
      throw ProtocolError("CuckooBatchPir: seed exceeds capacity bound");
    }
    for (std::size_t pos = 0; pos < contents.size(); ++pos) {
      bucket[pos] = database[contents[pos]];
    }
    w.bytes(bucket_pir.answer_bytes(bucket, item_bytes, q, prg));
  }
  r.expect_done();
  return w.take();
}

std::vector<Bytes> CuckooBatchPir::decode_bytes(const he::PaillierPrivateKey& sk,
                                                std::size_t item_bytes, BytesView answer,
                                                const ClientState& state) const {
  const std::size_t cap = state.params.bucket_capacity();
  const PaillierPir bucket_pir(pk_, cap, depth_);
  Reader r(answer);
  std::vector<Bytes> per_bucket(state.params.num_buckets);
  for (std::size_t b = 0; b < state.params.num_buckets; ++b) {
    per_bucket[b] = bucket_pir.decode_bytes(sk, item_bytes, r.bytes());
  }
  r.expect_done();
  std::vector<Bytes> out(m_);
  for (std::size_t j = 0; j < m_; ++j) out[j] = per_bucket[state.bucket_for_query[j]];
  return out;
}

std::vector<std::uint64_t> CuckooBatchPir::decode_u64(const he::PaillierPrivateKey& sk,
                                                      BytesView answer,
                                                      const ClientState& state) const {
  const std::size_t cap = state.params.bucket_capacity();
  const PaillierPir bucket_pir(pk_, cap, depth_);
  Reader r(answer);
  std::vector<std::uint64_t> per_bucket(state.params.num_buckets);
  for (std::size_t b = 0; b < state.params.num_buckets; ++b) {
    per_bucket[b] = bucket_pir.decode_u64(sk, r.bytes());
  }
  r.expect_done();
  std::vector<std::uint64_t> out(m_);
  for (std::size_t j = 0; j < m_; ++j) out[j] = per_bucket[state.bucket_for_query[j]];
  return out;
}

}  // namespace spfe::pir
