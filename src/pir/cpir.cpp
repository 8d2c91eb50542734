#include "pir/cpir.h"

#include <cmath>

#include "bignum/serialize.h"
#include "common/error.h"
#include "common/parallel.h"
#include "common/secret.h"
#include "common/serialize.h"
#include "obs/obs.h"

namespace spfe::pir {

using bignum::BigInt;

namespace {

std::vector<std::size_t> balanced_dims(std::size_t n, std::size_t depth) {
  if (depth == 0 || depth > 4) throw InvalidArgument("PaillierPir: depth must be 1..4");
  std::vector<std::size_t> dims(depth);
  // Smallest d with d^depth >= n, then shrink trailing dims where possible.
  std::size_t d = 1;
  while (true) {
    std::size_t prod = 1;
    bool enough = false;
    for (std::size_t j = 0; j < depth; ++j) {
      prod *= d;
      if (prod >= n) {
        enough = true;
        break;
      }
    }
    if (enough) break;
    ++d;
  }
  std::size_t remaining = n;
  for (std::size_t j = 0; j < depth; ++j) {
    dims[j] = d;
    remaining = (remaining + d - 1) / d;
  }
  // Tighten the last dimensions to the residual count.
  std::size_t count = n;
  for (std::size_t j = 0; j + 1 < depth; ++j) count = (count + dims[j] - 1) / dims[j];
  dims[depth - 1] = std::max<std::size_t>(count, 1);
  return dims;
}

}  // namespace

PaillierPir::PaillierPir(he::PaillierPublicKey pk, std::size_t n, std::size_t depth)
    : pk_(std::move(pk)), n_(n), dims_(balanced_dims(n, depth)) {
  if (n == 0) throw InvalidArgument("PaillierPir: empty database");
}

std::size_t PaillierPir::chunk_bytes() const {
  // Chunks must stay below N with headroom for the fold's additions.
  return (pk_.modulus_bits() - 16) / 8;
}

Bytes PaillierPir::make_query(const he::PaillierPrivateKey& sk, std::size_t /*secret*/ index,
                              ClientState& state, crypto::Prg& prg) const {
  if (!(sk.public_key() == pk_)) {
    throw InvalidArgument("PaillierPir: private key is for a different public key");
  }
  return make_query_impl(index, state,
                         [&](const BigInt& bit) { return sk.encrypt(bit, prg); });
}

Bytes PaillierPir::make_query(std::size_t /*secret*/ index, ClientState& state,
                              he::PaillierRandomnessPool& pool) const {
  if (!(pool.public_key() == pk_)) {
    throw InvalidArgument("PaillierPir: pool is for a different public key");
  }
  return make_query_impl(index, state,
                         [&](const BigInt& bit) { return pool.encrypt(bit); });
}

Bytes PaillierPir::make_query_impl(std::size_t /*secret*/ index, ClientState& state,
                                   const std::function<BigInt(const BigInt&)>& encrypt) const {
  if (index >= n_) throw InvalidArgument("PaillierPir: index out of range");
  SPFE_OBS_SPAN("cpir.make_query");
  state.positions.clear();
  // Decompose the retrieval index into per-dimension positions and compute
  // every selector bit with the mask primitives: the mixed-radix div/mod and
  // the position comparisons all run branch-free so the client's query
  // construction time carries no trace of which record it wants. (BigInt
  // normalization of the 0/1 plaintexts below is a documented non-goal —
  // see DESIGN.md "Constant-time policy".)
  std::vector<std::vector<std::uint64_t>> bits(dims_.size());
  std::uint64_t residual = index;
  // SPFE_CT_BEGIN(cpir_make_query)
  for (std::size_t j = 0; j < dims_.size(); ++j) {
    const common::CtDivmod dm = common::ct_divmod_u64(residual, dims_[j]);
    residual = dm.quotient;
    state.positions.push_back(static_cast<std::size_t>(dm.remainder));
    bits[j].resize(dims_[j]);
    for (std::size_t r = 0; r < dims_[j]; ++r) {
      bits[j][r] = common::ct_eq_u64(r, dm.remainder) & 1;
    }
  }
  // SPFE_CT_END
  Writer w;
  for (std::size_t j = 0; j < dims_.size(); ++j) {
    for (std::size_t r = 0; r < dims_[j]; ++r) {
      w.raw(encrypt(BigInt(bits[j][r])).to_bytes_be_padded(pk_.ciphertext_bytes()));
    }
  }
  return w.take();
}

Bytes PaillierPir::answer_chunks(std::vector<std::vector<BigInt>> items, BytesView query,
                                 crypto::Prg& prg) const {
  SPFE_OBS_SPAN("cpir.answer");
  Reader r(query);
  // Parse per-dimension selectors.
  std::vector<std::vector<BigInt>> selectors(dims_.size());
  for (std::size_t j = 0; j < dims_.size(); ++j) {
    selectors[j].reserve(dims_[j]);
    for (std::size_t i = 0; i < dims_[j]; ++i) {
      selectors[j].push_back(BigInt::from_bytes_be(r.raw(pk_.ciphertext_bytes())));
    }
  }
  r.expect_done();

  const std::size_t cb = chunk_bytes();
  for (std::size_t level = 0; level < dims_.size(); ++level) {
    obs::Span fold_span("cpir.fold");
    fold_span.note("level=" + std::to_string(level));
    const std::size_t dim = dims_[level];
    const std::size_t groups = (items.size() + dim - 1) / dim;
    const std::size_t chunks = items.empty() ? 0 : items[0].size();
    // Draw each cell's encrypt(0) randomness serially in (group, chunk)
    // order — exactly the order a serial fold consumes the PRG — so the
    // answer bytes are identical for every thread count and fold kernel.
    std::vector<BigInt> rand0(groups * chunks);
    for (BigInt& unit : rand0) unit = pk_.random_unit(prg);
    std::vector<std::vector<BigInt>> folded(groups);
    for (auto& group : folded) group.resize(chunks);
    if (fold_kernel_ == FoldKernel::kMultiExp) {
      // One simultaneous multi-exp per level: base-major exponent matrix
      // with one column per (group, chunk) cell, so window tables built for
      // this level's selectors are shared across every cell.
      std::vector<std::vector<BigInt>> exps(dim);
      for (std::size_t row = 0; row < dim; ++row) {
        exps[row].resize(groups * chunks);
        for (std::size_t g = 0; g < groups; ++g) {
          const std::size_t idx = g * dim + row;
          if (idx >= items.size()) continue;  // ragged tail group: exponent 0
          for (std::size_t c = 0; c < chunks; ++c) {
            exps[row][g * chunks + c] = items[idx][c];
          }
        }
      }
      const std::vector<BigInt> sums = pk_.mul_scalar_sum_matrix(selectors[level], exps);
      // Fold in the encrypt(0) blinders; each cell is an independent modexp.
      common::parallel_for(groups * chunks, [&](std::size_t cell) {
        folded[cell / chunks][cell % chunks] =
            pk_.add(pk_.encrypt_with_randomness(BigInt(0), rand0[cell]), sums[cell]);
      });
    } else {
      // Reference fold: per-row mul_scalar folded with add, cells fanned
      // out across the pool. Kept for regression tests and the bench
      // ablation; must stay byte-identical to the multi-exp kernel.
      common::parallel_for(groups * chunks, [&](std::size_t cell) {
        const std::size_t g = cell / chunks;
        const std::size_t c = cell % chunks;
        BigInt acc = pk_.encrypt_with_randomness(BigInt(0), rand0[cell]);
        for (std::size_t row = 0; row < dim; ++row) {
          const std::size_t idx = g * dim + row;
          if (idx >= items.size()) break;
          if (items[idx][c].is_zero()) continue;  // exponent 0 contributes nothing
          acc = pk_.add(acc, pk_.mul_scalar(selectors[level][row], items[idx][c]));
        }
        folded[g][c] = std::move(acc);
      });
    }
    if (level + 1 == dims_.size()) {
      // Final level: emit the folded ciphertexts. Each cell's encrypt(0)
      // blinder already gives it uniform randomness (DESIGN.md "cPIR answer
      // randomization and §4 lane packing").
      if (folded.size() != 1) throw InvalidArgument("PaillierPir: dimension mismatch");
      const std::vector<BigInt>& out = folded[0];
      Writer w;
      w.varint(out.size());
      for (const BigInt& ct : out) {
        w.raw(ct.to_bytes_be_padded(pk_.ciphertext_bytes()));
      }
      return w.take();
    }
    // Re-chunk the ciphertexts into plaintexts for the next level.
    std::vector<std::vector<BigInt>> next(folded.size());
    const std::size_t ct_bytes = pk_.ciphertext_bytes();
    const std::size_t pieces = (ct_bytes + cb - 1) / cb;
    for (std::size_t g = 0; g < folded.size(); ++g) {
      next[g].reserve(folded[g].size() * pieces);
      for (const BigInt& ct : folded[g]) {
        const Bytes be = ct.to_bytes_be_padded(ct_bytes);
        // Little-endian chunk order over big-endian bytes: chunk p covers
        // bytes [ct_bytes - (p+1)*cb, ct_bytes - p*cb).
        for (std::size_t p = 0; p < pieces; ++p) {
          const std::size_t end = ct_bytes - p * cb;
          const std::size_t begin = end > cb ? end - cb : 0;
          next[g].push_back(BigInt::from_bytes_be(BytesView(be.data() + begin, end - begin)));
        }
      }
    }
    items = std::move(next);
  }
  throw InvalidArgument("PaillierPir: unreachable");
}

Bytes PaillierPir::answer_u64(std::span<const std::uint64_t> database, BytesView query,
                              crypto::Prg& prg) const {
  if (database.size() != n_) throw InvalidArgument("PaillierPir: database size mismatch");
  std::vector<std::vector<BigInt>> items(n_);
  for (std::size_t i = 0; i < n_; ++i) items[i] = {BigInt(database[i])};
  return answer_chunks(std::move(items), query, prg);
}

Bytes PaillierPir::answer_bytes(std::span<const Bytes> database, std::size_t item_bytes,
                                BytesView query, crypto::Prg& prg) const {
  if (database.size() != n_) throw InvalidArgument("PaillierPir: database size mismatch");
  const std::size_t cb = chunk_bytes();
  const std::size_t pieces = (item_bytes + cb - 1) / cb;
  std::vector<std::vector<BigInt>> items(n_);
  for (std::size_t i = 0; i < n_; ++i) {
    if (database[i].size() != item_bytes) {
      throw InvalidArgument("PaillierPir: item size mismatch");
    }
    items[i].reserve(pieces);
    for (std::size_t p = 0; p < pieces; ++p) {
      const std::size_t end = item_bytes - p * cb;
      const std::size_t begin = end > cb ? end - cb : 0;
      items[i].push_back(
          BigInt::from_bytes_be(BytesView(database[i].data() + begin, end - begin)));
    }
  }
  return answer_chunks(std::move(items), query, prg);
}

std::vector<BigInt> PaillierPir::decode_chunks(const he::PaillierPrivateKey& sk,
                                               BytesView answer,
                                               std::size_t level0_chunks) const {
  SPFE_OBS_SPAN("cpir.decode");
  Reader r(answer);
  const std::uint64_t count = r.varint_count(pk_.ciphertext_bytes());
  std::vector<BigInt> cts;
  cts.reserve(count);
  for (std::uint64_t i = 0; i < count; ++i) {
    cts.push_back(BigInt::from_bytes_be(r.raw(pk_.ciphertext_bytes())));
  }
  r.expect_done();

  const std::size_t cb = chunk_bytes();
  const std::size_t ct_bytes = pk_.ciphertext_bytes();
  const std::size_t pieces = (ct_bytes + cb - 1) / cb;

  // Peel recursion levels: decrypt, reassemble chunk groups into inner
  // ciphertexts, repeat. After peeling depth-1 levels, `cts` holds the
  // level-0 ciphertexts whose plaintexts are the item chunks.
  for (std::size_t level = dims_.size(); level-- > 1;) {
    const std::vector<BigInt> plain = sk.decrypt_all(cts);
    if (plain.size() % pieces != 0) throw ProtocolError("PaillierPir: bad answer shape");
    std::vector<BigInt> inner;
    inner.reserve(plain.size() / pieces);
    for (std::size_t g = 0; g < plain.size(); g += pieces) {
      BigInt v;
      for (std::size_t p = pieces; p-- > 0;) {
        v = (v << (cb * 8)) + plain[g + p];
      }
      inner.push_back(std::move(v));
    }
    cts = std::move(inner);
  }
  if (cts.size() != level0_chunks) throw ProtocolError("PaillierPir: bad chunk count");
  return sk.decrypt_all(cts);
}

std::uint64_t PaillierPir::decode_u64(const he::PaillierPrivateKey& sk, BytesView answer) const {
  const std::vector<BigInt> chunks = decode_chunks(sk, answer, 1);
  return chunks[0].to_u64();
}

Bytes PaillierPir::decode_bytes(const he::PaillierPrivateKey& sk, std::size_t item_bytes,
                                BytesView answer) const {
  const std::size_t cb = chunk_bytes();
  const std::size_t pieces = (item_bytes + cb - 1) / cb;
  const std::vector<BigInt> chunks = decode_chunks(sk, answer, pieces);
  Bytes out(item_bytes, 0);
  for (std::size_t p = 0; p < pieces; ++p) {
    const std::size_t end = item_bytes - p * cb;
    const std::size_t begin = end > cb ? end - cb : 0;
    const Bytes be = chunks[p].to_bytes_be_padded(end - begin);
    std::copy(be.begin(), be.end(), out.begin() + static_cast<std::ptrdiff_t>(begin));
  }
  return out;
}

}  // namespace spfe::pir
