// Single-server computational PIR from additively homomorphic encryption
// (Kushilevitz–Ostrovsky [32] style, instantiated with Paillier).
//
// The client sends, per recursion dimension, an encrypted one-hot selector;
// the server folds the database dimension-by-dimension:
//   level 0: E(x_i0) = prod_r E(sel0[r])^{x_r}  (exponents are *data*, small)
//   level j>0: previous-level ciphertexts are split into chunks < N and the
//   fold is repeated, tripling the ciphertext count per level.
// depth 1 is the linear baseline (n ciphertexts up), depth 2 gives the
// classic O(sqrt n) communication, depth 3 O(n^{1/3}) with a 9x response
// expansion — bench_spir ablates the trade-off.
//
// Database secrecy: a semi-honest client learns exactly one item. A
// malicious client can submit a non-one-hot selector and learn one *linear
// combination* of items — which is precisely one function of <= m database
// locations, i.e. the paper's weak-security class. This is documented
// behaviour (tested in tests/pir_test.cpp), matching how §3.3 consumes SPIR.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "bignum/bigint.h"
#include "common/bytes.h"
#include "crypto/prg.h"
#include "he/paillier.h"
#include "he/precomp.h"

namespace spfe::pir {

class PaillierPir {
 public:
  // `depth` recursion dimensions (1..4); dims are balanced ~ n^(1/depth).
  PaillierPir(he::PaillierPublicKey pk, std::size_t n, std::size_t depth);

  std::size_t n() const { return n_; }
  std::size_t depth() const { return dims_.size(); }
  const std::vector<std::size_t>& dims() const { return dims_; }
  const he::PaillierPublicKey& public_key() const { return pk_; }

  // Server fold kernel. kMultiExp (default) evaluates each recursion level
  // as one simultaneous multi-exponentiation with shared window tables;
  // kNaive folds per-row mul_scalar/add exactly like the original serial
  // loop. Both consume the PRG identically and produce byte-identical
  // answers — kNaive is kept as the regression/ablation baseline.
  enum class FoldKernel { kMultiExp, kNaive };
  void set_fold_kernel(FoldKernel k) { fold_kernel_ = k; }
  FoldKernel fold_kernel() const { return fold_kernel_; }

  struct ClientState {
    std::vector<std::size_t> positions;  // per-dimension coordinate
  };

  // Client: encrypted selector per dimension (sum(dims) ciphertexts). The
  // client encrypts under its own key, so `sk` (whose public key must be
  // this PIR's; InvalidArgument otherwise) computes each factor by CRT.
  Bytes make_query(const he::PaillierPrivateKey& sk, std::size_t index, ClientState& state,
                   crypto::Prg& prg) const;
  // Pooled client query: encryption factors come from the precomputation
  // pool (he/precomp.h). Byte-identical to the Prg overload when the pool's
  // stream is seeded with the same seed, whatever the pool's warmth. The
  // pool must hold factors for this PIR's public key.
  Bytes make_query(std::size_t index, ClientState& state,
                   he::PaillierRandomnessPool& pool) const;

  // Server: database of u64 values (must each be < N).
  Bytes answer_u64(std::span<const std::uint64_t> database, BytesView query,
                   crypto::Prg& prg) const;
  // Server: database of equal-length byte items (arbitrary length; chunked).
  Bytes answer_bytes(std::span<const Bytes> database, std::size_t item_bytes, BytesView query,
                     crypto::Prg& prg) const;

  // Client: recursive decryption.
  std::uint64_t decode_u64(const he::PaillierPrivateKey& sk, BytesView answer) const;
  Bytes decode_bytes(const he::PaillierPrivateKey& sk, std::size_t item_bytes,
                     BytesView answer) const;

 private:
  // Shared query construction; `encrypt` supplies E(bit) ciphertexts (from
  // a Prg or a randomness pool, both in stream order).
  Bytes make_query_impl(std::size_t index, ClientState& state,
                        const std::function<bignum::BigInt(const bignum::BigInt&)>& encrypt) const;
  // Core fold over a matrix of plaintext chunks per item.
  Bytes answer_chunks(std::vector<std::vector<bignum::BigInt>> items, BytesView query,
                      crypto::Prg& prg) const;
  std::vector<bignum::BigInt> decode_chunks(const he::PaillierPrivateKey& sk, BytesView answer,
                                            std::size_t level0_chunks) const;

  std::size_t chunk_bytes() const;  // plaintext chunk size for recursion

  he::PaillierPublicKey pk_;
  std::size_t n_;
  std::vector<std::size_t> dims_;
  FoldKernel fold_kernel_ = FoldKernel::kMultiExp;
};

}  // namespace spfe::pir
