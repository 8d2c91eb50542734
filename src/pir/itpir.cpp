#include "pir/itpir.h"

#include "common/error.h"
#include "common/secret.h"
#include "common/serialize.h"
#include "field/polynomial.h"
#include "field/reed_solomon.h"
#include "obs/obs.h"

namespace spfe::pir {
namespace {

std::size_t index_bits_for(std::size_t n) {
  std::size_t l = 0;
  while ((std::size_t(1) << l) < n) ++l;
  return std::max<std::size_t>(l, 1);
}

}  // namespace

std::uint64_t eval_selection_polynomial(const field::Fp64& f,
                                        std::span<const std::uint64_t> database,
                                        std::span<const std::uint64_t> point) {
  const std::size_t l = point.size();
  // Build per-bit selectors once, then the product over bits per index via
  // a prefix tree: selector(i) = prod_k (point[k] if i(k)=1 else 1-point[k]).
  // Iterative doubling keeps this O(n) multiplications total.
  std::vector<std::uint64_t> weights(1, f.one());
  for (std::size_t k = 0; k < l; ++k) {
    const std::uint64_t yk = point[k];
    const std::uint64_t not_yk = f.sub(f.one(), yk);
    std::vector<std::uint64_t> next(weights.size() * 2);
    for (std::size_t i = 0; i < weights.size(); ++i) {
      next[2 * i] = f.mul(weights[i], not_yk);   // bit k = 0
      next[2 * i + 1] = f.mul(weights[i], yk);   // bit k = 1
    }
    weights = std::move(next);
  }
  // weights is indexed by the l-bit string (leftmost bit = MSB), matching i.
  std::uint64_t acc = f.zero();
  for (std::size_t i = 0; i < database.size(); ++i) {
    acc = f.add(acc, f.mul(weights[i], database[i]));
  }
  return acc;
}

PolyItPir::PolyItPir(field::Fp64 field, std::size_t n, std::size_t num_servers,
                     std::size_t threshold)
    : field_(field), n_(n), k_(num_servers), t_(threshold), l_(index_bits_for(n)) {
  if (n == 0) throw InvalidArgument("PolyItPir: empty database");
  if (threshold == 0) throw InvalidArgument("PolyItPir: threshold must be >= 1");
  if (num_servers <= threshold * l_) {
    throw InvalidArgument("PolyItPir: need more than t*log2(n) servers");
  }
  if (field.modulus() <= num_servers) {
    throw InvalidArgument("PolyItPir: field must be larger than the server count");
  }
}

std::size_t PolyItPir::min_servers(std::size_t n, std::size_t threshold) {
  return threshold * index_bits_for(n) + 1;
}

std::vector<Bytes> PolyItPir::make_queries(std::size_t /*secret*/ index, ClientState& state,
                                           crypto::Prg& prg) const {
  if (index >= n_) throw InvalidArgument("PolyItPir: index out of range");
  // Encode the index bits into field constants branch-free: the shift
  // amounts are public (bit position within the l-bit index), and the
  // 0/1 selection runs through ct_select so the encoding time does not
  // depend on which record the client wants.
  std::vector<std::uint64_t> constants(l_);
  // SPFE_CT_BEGIN(itpir_index_bits)
  for (std::size_t k = 0; k < l_; ++k) {
    const std::uint64_t bit = (static_cast<std::uint64_t>(index) >> (l_ - 1 - k)) & 1;
    constants[k] =
        common::ct_select_u64(common::ct_mask_from_bit(bit), field_.one(), field_.zero());
  }
  // SPFE_CT_END
  // Random degree-t curve gamma with gamma(0) = encoded index bits.
  std::vector<field::Polynomial<field::Fp64>> curve;
  curve.reserve(l_);
  for (std::size_t k = 0; k < l_; ++k) {
    curve.push_back(
        field::Polynomial<field::Fp64>::random_with_constant(field_, t_, constants[k], prg));
  }
  state.query_points.resize(k_);
  std::vector<Bytes> msgs;
  msgs.reserve(k_);
  for (std::size_t h = 0; h < k_; ++h) {
    const std::uint64_t alpha = field_.from_u64(h + 1);
    state.query_points[h] = alpha;
    Writer w;
    for (std::size_t k = 0; k < l_; ++k) w.u64(curve[k].eval(alpha));
    msgs.push_back(w.take());
  }
  return msgs;
}

Bytes PolyItPir::answer(std::size_t server_id, std::span<const std::uint64_t> database,
                        BytesView query, const crypto::Prg::Seed* spir_seed) const {
  if (database.size() != n_) throw InvalidArgument("PolyItPir: database size mismatch");
  if (server_id >= k_) throw InvalidArgument("PolyItPir: server id out of range");
  Reader r(query);
  std::vector<std::uint64_t> point(l_);
  for (auto& p : point) {
    p = r.u64();
    if (p >= field_.modulus()) throw ProtocolError("PolyItPir: query element out of field");
  }
  r.expect_done();

  std::uint64_t value = eval_selection_polynomial(field_, database, point);
  if (spir_seed != nullptr) {
    // Shared masking polynomial R of degree l*t with R(0) = 0: answers still
    // interpolate to the selected item, but reveal nothing else [25].
    crypto::Prg shared(*spir_seed);
    const auto mask = field::Polynomial<field::Fp64>::random_with_constant(
        field_, l_ * t_, field_.zero(), shared);
    value = field_.add(value, mask.eval(field_.from_u64(server_id + 1)));
  }
  Writer w;
  w.u64(value);
  return w.take();
}

std::uint64_t PolyItPir::decode(const std::vector<Bytes>& answers,
                                const ClientState& state) const {
  if (answers.size() != k_ || state.query_points.size() != k_) {
    throw InvalidArgument("PolyItPir: need one answer per server");
  }
  std::vector<std::uint64_t> xs(k_), ys(k_);
  for (std::size_t h = 0; h < k_; ++h) {
    Reader r(answers[h]);
    xs[h] = state.query_points[h];
    ys[h] = r.u64();
    r.expect_done();
    if (ys[h] >= field_.modulus()) throw ProtocolError("PolyItPir: answer out of field");
  }
  return field::interpolate_at(field_, xs, ys, field_.zero());
}

std::uint64_t PolyItPir::decode_with_errors(const std::vector<Bytes>& answers,
                                            const ClientState& state,
                                            std::size_t max_errors) const {
  if (answers.size() != k_ || state.query_points.size() != k_) {
    throw InvalidArgument("PolyItPir: need one answer per server");
  }
  std::vector<std::uint64_t> xs(k_), ys(k_);
  for (std::size_t h = 0; h < k_; ++h) {
    Reader r(answers[h]);
    xs[h] = state.query_points[h];
    ys[h] = r.u64();
    r.expect_done();
    if (ys[h] >= field_.modulus()) throw ProtocolError("PolyItPir: answer out of field");
  }
  const auto result =
      field::berlekamp_welch(field_, xs, ys, l_ * t_, max_errors, field_.zero());
  if (!result.has_value()) {
    throw ProtocolError("PolyItPir: more corrupted answers than the error budget");
  }
  return *result;
}

std::uint64_t PolyItPir::run(net::StarNetwork& net, std::span<const std::uint64_t> database,
                             std::size_t index,
                             const std::optional<crypto::Prg::Seed>& spir_seed,
                             crypto::Prg& prg) const {
  if (net.num_servers() != k_) throw InvalidArgument("PolyItPir: network has wrong server count");
  SPFE_OBS_SPAN("itpir.run");
  ClientState state;
  const auto queries = make_queries(index, state, prg);
  for (std::size_t h = 0; h < k_; ++h) net.client_send(h, queries[h]);
  const crypto::Prg::Seed* seed = spir_seed ? &*spir_seed : nullptr;
  for (std::size_t h = 0; h < k_; ++h) {
    net.server_send(h, answer(h, database, net.server_receive(h), seed));
  }
  std::vector<Bytes> answers;
  answers.reserve(k_);
  for (std::size_t h = 0; h < k_; ++h) answers.push_back(net.client_receive(h));
  return decode(answers, state);
}

net::RobustResult PolyItPir::run_robust(net::SimStarNetwork& net,
                                        std::span<const std::uint64_t> database,
                                        std::size_t index,
                                        const std::optional<crypto::Prg::Seed>& spir_seed,
                                        crypto::Prg& prg, const net::RobustConfig& cfg) const {
  if (net.num_servers() != k_) throw InvalidArgument("PolyItPir: network has wrong server count");
  SPFE_OBS_SPAN("itpir.run_robust");
  auto [value, report] = net::run_robust_star(
      field_, net, l_ * t_, cfg,
      [&](std::size_t /*attempt*/, std::vector<std::uint64_t>& abscissae) {
        // Fresh curve randomness from `prg` on every attempt: query points
        // are never reused, so retries leak nothing about the index.
        ClientState state;
        auto queries = make_queries(index, state, prg);
        abscissae = std::move(state.query_points);
        return queries;
      },
      [&](std::size_t s, std::size_t attempt, Bytes query) {
        const auto seed = net::attempt_spir_seed(spir_seed, attempt);
        return answer(s, database, query, seed ? &*seed : nullptr);
      },
      [&](const Bytes& ans) {
        Reader r(ans);
        const std::uint64_t y = r.u64();
        r.expect_done();
        if (y >= field_.modulus()) throw ProtocolError("PolyItPir: answer out of field");
        return y;
      });
  return net::RobustResult{value, std::move(report)};
}

TwoServerXorPir::TwoServerXorPir(std::size_t n, std::size_t item_bytes)
    : n_(n), item_bytes_(item_bytes) {
  if (n == 0 || item_bytes == 0) throw InvalidArgument("TwoServerXorPir: empty geometry");
  rows_ = 1;
  while (rows_ * rows_ < n) ++rows_;
  cols_ = (n + rows_ - 1) / rows_;
}

std::pair<Bytes, Bytes> TwoServerXorPir::make_queries(std::size_t /*secret*/ index,
                                                      ClientState& state,
                                                      crypto::Prg& prg) const {
  if (index >= n_) throw InvalidArgument("TwoServerXorPir: index out of range");
  Bytes s0((rows_ + 7) / 8);
  prg.fill(s0.data(), s0.size());
  Bytes s1 = s0;
  // Split the index into its (row, col) grid position and flip the row bit
  // of the second share branch-free: the div/mod runs through ct_divmod and
  // the flip touches every byte of the share with a mask, so neither the
  // access pattern nor the time reveals the row.
  // SPFE_CT_BEGIN(xorpir_make_queries)
  const common::CtDivmod dm = common::ct_divmod_u64(index, cols_);
  state.row = static_cast<std::size_t>(dm.quotient);
  state.col = static_cast<std::size_t>(dm.remainder);
  for (std::size_t b = 0; b < s1.size(); ++b) {
    std::uint8_t flip = 0;
    for (std::size_t i = 0; i < 8; ++i) {
      flip |= static_cast<std::uint8_t>((common::ct_eq_u64(b * 8 + i, dm.quotient) & 1) << i);
    }
    s1[b] ^= flip;
  }
  // SPFE_CT_END
  return {std::move(s0), std::move(s1)};
}

Bytes TwoServerXorPir::answer(std::span<const Bytes> database, BytesView query) const {
  if (database.size() != n_) throw InvalidArgument("TwoServerXorPir: database size mismatch");
  if (query.size() != (rows_ + 7) / 8) throw ProtocolError("TwoServerXorPir: bad query size");
  Bytes acc(cols_ * item_bytes_, 0);
  for (std::size_t row = 0; row < rows_; ++row) {
    if (((query[row / 8] >> (row % 8)) & 1) == 0) continue;
    for (std::size_t col = 0; col < cols_; ++col) {
      const std::size_t idx = row * cols_ + col;
      if (idx >= n_) break;
      const Bytes& item = database[idx];
      if (item.size() != item_bytes_) {
        throw InvalidArgument("TwoServerXorPir: item size mismatch");
      }
      for (std::size_t b = 0; b < item_bytes_; ++b) acc[col * item_bytes_ + b] ^= item[b];
    }
  }
  return acc;
}

Bytes TwoServerXorPir::decode(const Bytes& answer0, const Bytes& answer1,
                              const ClientState& state) const {
  if (answer0.size() != cols_ * item_bytes_ || answer1.size() != answer0.size()) {
    throw ProtocolError("TwoServerXorPir: bad answer size");
  }
  Bytes out(item_bytes_);
  for (std::size_t b = 0; b < item_bytes_; ++b) {
    out[b] = static_cast<std::uint8_t>(answer0[state.col * item_bytes_ + b] ^
                                       answer1[state.col * item_bytes_ + b]);
  }
  return out;
}

}  // namespace spfe::pir
