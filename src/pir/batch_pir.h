// Batched single-server PIR: SPIR(n, m, l) as one primitive instead of m
// independent SPIR(n, 1, l) invocations.
//
// Construction (batch-PIR via cuckoo hashing, in the spirit of the
// amortization results [36, 37, 8] the paper cites):
//   - a public hash seed (chosen by the client per batch) maps every
//     database index into 3 of B buckets; the server replicates each item
//     into all of its buckets and pads buckets to equal length;
//   - the client cuckoo-places its m indices so that each lands in a
//     *distinct* bucket, then runs one small PaillierPir query per bucket
//     (dummy queries for unused buckets);
//   - total server work is ~3n cheap exponentiations instead of m*n — the
//     paper's "server computation almost linear in n" versus the provable
//     Omega(mn) of m independent invocations (§1.2, §3.3).
// bench_spir measures both sides of this trade.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "common/bytes.h"
#include "crypto/prg.h"
#include "pir/cpir.h"

namespace spfe::pir {

// Deterministic bucket map shared by client and server.
struct CuckooParams {
  std::size_t n = 0;
  std::size_t num_buckets = 0;
  std::uint64_t hash_seed = 0;
  static constexpr std::size_t kNumHashes = 3;

  // The (deduplicated, sorted) candidate buckets of index i.
  std::vector<std::size_t> buckets_of(std::size_t index) const;
  // Bucket contents: sorted indices of all items mapping to bucket b.
  std::vector<std::size_t> bucket_contents(std::size_t b) const;
  // All buckets in one O(n) pass (server hot path).
  std::vector<std::vector<std::size_t>> all_bucket_contents() const;
  // Actual max bucket load under this seed (full scan).
  std::size_t max_load() const;
  // Deterministic public capacity bound, a function of (n, num_buckets)
  // only — query/answer sizes therefore do not depend on the hash seed
  // (which would otherwise open a message-size side channel; caught by
  // PropertyPrivacy.QuerySizesIndependentOfIndices). Seeds whose max load
  // exceeds the bound are rejected at query time (negligible probability).
  std::size_t bucket_capacity() const;
};

class CuckooBatchPir {
 public:
  // Retrieves m items per batch. B = max(2m, 4) buckets.
  CuckooBatchPir(he::PaillierPublicKey pk, std::size_t n, std::size_t m, std::size_t depth);

  std::size_t num_buckets() const { return params_.num_buckets; }

  struct ClientState {
    CuckooParams params;
    // For query slot j: which bucket serves it and the PIR state.
    std::vector<std::size_t> bucket_for_query;
    std::vector<PaillierPir::ClientState> pir_states;
  };

  // Client: places the m indices (distinct or not — duplicates are served
  // from different buckets) and emits one message: seed + per-bucket query.
  // `prg` drives the hash seed and cuckoo placement. The per-bucket
  // encryptions draw precomputed factors from `pool` when it is keyed for
  // this PIR's key, else from `prg`. Pooling splits the randomness into two
  // streams, so pooled and unpooled transcripts differ; pooled transcripts
  // are deterministic in the two seeds and independent of pool warmth.
  Bytes make_query(const std::vector<std::size_t>& indices, ClientState& state,
                   crypto::Prg& prg, he::PaillierRandomnessPool* pool = nullptr) const;

  // Server: u64 item database.
  Bytes answer_u64(std::span<const std::uint64_t> database, BytesView query,
                   crypto::Prg& prg) const;
  // Server: equal-length byte items (e.g. the encrypted database of §3.3.3).
  Bytes answer_bytes(std::span<const Bytes> database, std::size_t item_bytes, BytesView query,
                     crypto::Prg& prg) const;

  // Client: recovers the m items in query order.
  std::vector<std::uint64_t> decode_u64(const he::PaillierPrivateKey& sk, BytesView answer,
                                        const ClientState& state) const;
  std::vector<Bytes> decode_bytes(const he::PaillierPrivateKey& sk, std::size_t item_bytes,
                                  BytesView answer, const ClientState& state) const;

 private:
  // Cuckoo placement: query slot j -> distinct bucket; throws ProtocolError
  // if placement fails after the retry budget (the caller may re-seed).
  static std::vector<std::size_t> place(const CuckooParams& params,
                                        const std::vector<std::size_t>& indices,
                                        crypto::Prg& prg);

  he::PaillierPublicKey pk_;
  std::size_t m_;
  std::size_t depth_;
  CuckooParams params_;  // template (hash_seed filled per batch)
};

}  // namespace spfe::pir
