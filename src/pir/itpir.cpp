#include "pir/itpir.h"

#include "common/error.h"
#include "common/parallel.h"
#include "common/secret.h"
#include "common/serialize.h"
#include "field/polynomial.h"
#include "obs/obs.h"

namespace spfe::pir {
namespace {

// One server's answer: a single field element.
std::uint64_t parse_answer(const field::Fp64& field, BytesView answer) {
  Reader r(answer);
  const std::uint64_t y = r.u64();
  r.expect_done();
  if (y >= field.modulus()) throw ProtocolError("instance hiding: answer out of field");
  return y;
}

}  // namespace

std::size_t selection_bits(std::size_t n) {
  std::size_t l = 0;
  while ((std::size_t(1) << l) < n) ++l;
  return std::max<std::size_t>(l, 1);
}

// `f` is taken by value, so stores into `scratch` cannot alias its modulus
// and the folds keep it in a register.
std::uint64_t eval_selection_polynomial(field::Fp64 f, std::span<const std::uint64_t> database,
                                        std::span<const std::uint64_t> point,
                                        std::vector<std::uint64_t>& scratch) {
  const std::size_t l = point.size();
  const std::size_t n = database.size();
  // The database spans the low `width` index bits.
  const std::size_t width = n < 2 ? 0 : selection_bits(n);
  if (l >= 64) throw InvalidArgument("selection polynomial: more than 63 coordinates");
  if (width > l) throw InvalidArgument("selection polynomial: database longer than 2^l");
  for (const std::uint64_t y : point) {
    if (y >= f.modulus()) throw InvalidArgument("selection polynomial: coordinate out of field");
  }
  const std::uint64_t p = f.modulus();
  const auto entry = [&](std::size_t i) {
    const std::uint64_t x = database[i];
    return x < p ? x : x % p;
  };

  // Fold P0 in place, one index bit per pass, most significant first: with
  // lo and hi the halves of the table whose bit is 0 and 1, P0 over 2h
  // entries is lo + y*(hi - lo) over h entries, so the passes take
  // 2^width - 1 products in all. hi + p - lo < 2p is left unreduced for
  // mul_lazy. The first pass reads the database and counts entries past
  // its end as zero.
  std::uint64_t value = n == 0 ? f.zero() : entry(0);
  if (width > 0) {
    std::size_t h = std::size_t(1) << (width - 1);
    scratch.resize(h);
    const std::uint64_t* y = point.data() + (l - width);
    std::uint64_t yk = *y++;
    for (std::size_t i = 0; i < n - h; ++i) {
      const std::uint64_t lo = entry(i);
      scratch[i] = f.add(lo, f.mul_lazy(entry(i + h) + p - lo, yk));
    }
    for (std::size_t i = n - h; i < h; ++i) {
      const std::uint64_t lo = entry(i);
      scratch[i] = f.sub(lo, f.mul_lazy(lo, yk));
    }
    for (h /= 2; h > 0; h /= 2) {
      yk = *y++;
      for (std::size_t i = 0; i < h; ++i) {
        scratch[i] = f.add(scratch[i], f.mul_lazy(scratch[i + h] + p - scratch[i], yk));
      }
    }
    value = scratch[0];
  }
  // Index bits above `width` are 0 for every entry, so each leading
  // coordinate y only scales P0 by 1 - y.
  for (std::size_t k = 0; k + width < l; ++k) value = f.mul(value, f.sub(f.one(), point[k]));
  return value;
}

InstanceHiding::InstanceHiding(field::Fp64 field, std::size_t n, std::size_t m,
                               std::size_t num_servers, std::size_t threshold,
                               std::optional<circuits::Formula> formula)
    : field_(field),
      formula_(std::move(formula)),
      n_(n),
      m_(m),
      k_(num_servers),
      t_(threshold),
      l_(selection_bits(n)),
      degree_((formula_ ? formula_->arith_degree(l_) : l_) * threshold) {
  if (n == 0) throw InvalidArgument("instance hiding: empty database");
  if (m == 0) throw InvalidArgument("instance hiding: need at least one index per query");
  if (threshold == 0) throw InvalidArgument("instance hiding: threshold must be >= 1");
  if (num_servers <= degree_) {
    throw InvalidArgument("instance hiding: need more than deg(P)*t servers");
  }
  if (field.modulus() <= num_servers) {
    throw InvalidArgument("instance hiding: field must be larger than the server count");
  }
}

std::vector<Bytes> InstanceHiding::make_queries(
    const std::vector<std::size_t>& /*secret*/ indices, ClientState& state,
    crypto::Prg& prg) const {
  if (indices.size() != m_) throw InvalidArgument("instance hiding: need m indices");
  for (std::size_t j = 0; j < m_; ++j) {
    if (indices[j] >= n_) throw InvalidArgument("instance hiding: index out of range");
  }
  // Encode the index bits into field constants branch-free, block j = bits
  // of indices[j]: the shift amounts are public (bit position within the
  // l-bit index), and the 0/1 selection runs through ct_select so the
  // encoding time does not depend on which records the client wants.
  std::vector<std::uint64_t> constants(m_ * l_);
  // SPFE_CT_BEGIN(itpir_index_bits)
  for (std::size_t j = 0; j < m_; ++j) {
    for (std::size_t k = 0; k < l_; ++k) {
      const std::uint64_t bit = (static_cast<std::uint64_t>(indices[j]) >> (l_ - 1 - k)) & 1;
      constants[j * l_ + k] =
          common::ct_select_u64(common::ct_mask_from_bit(bit), field_.one(), field_.zero());
    }
  }
  // SPFE_CT_END
  // Random degree-t curve gamma with gamma(0) = encoded index bits.
  std::vector<field::Polynomial<field::Fp64>> curve;
  curve.reserve(constants.size());
  for (const std::uint64_t c : constants) {
    curve.push_back(field::Polynomial<field::Fp64>::random_with_constant(field_, t_, c, prg));
  }
  state.abscissae.resize(k_);
  std::vector<Bytes> msgs;
  msgs.reserve(k_);
  for (std::size_t h = 0; h < k_; ++h) {
    const std::uint64_t alpha = field_.from_u64(h + 1);
    state.abscissae[h] = alpha;
    Writer w;
    for (const auto& coord : curve) w.u64(coord.eval(alpha));
    msgs.push_back(w.take());
  }
  return msgs;
}

void InstanceHiding::check_database(std::span<const std::uint64_t> database) const {
  if (database.size() != n_) throw InvalidArgument("instance hiding: database size mismatch");
  if (formula_) {
    for (const std::uint64_t x : database) {
      if (x > 1) throw InvalidArgument("instance hiding: formula database entries must be bits");
    }
  }
}

Bytes InstanceHiding::answer(std::size_t server_id, std::span<const std::uint64_t> database,
                             BytesView query, const crypto::Prg::Seed* spir_seed) const {
  check_database(database);
  if (server_id >= k_) throw InvalidArgument("instance hiding: server id out of range");
  Reader r(query);
  std::vector<std::uint64_t> point(m_ * l_);
  for (auto& p : point) {
    p = r.u64();
    if (p >= field_.modulus()) throw ProtocolError("instance hiding: query element out of field");
  }
  r.expect_done();

  // Leaf j = P0 on coordinate block j; the m folds share one scratch buffer.
  std::vector<std::uint64_t> leaves(m_);
  std::vector<std::uint64_t> scratch;
  for (std::size_t j = 0; j < m_; ++j) {
    leaves[j] = eval_selection_polynomial(
        field_, database, std::span<const std::uint64_t>(point.data() + j * l_, l_), scratch);
  }
  std::uint64_t value = field_.zero();
  if (formula_) {
    value = formula_->eval_arithmetized(field_, leaves);
  } else {
    for (const std::uint64_t leaf : leaves) value = field_.add(value, leaf);
  }
  if (spir_seed != nullptr) {
    // Shared masking polynomial R of the answer degree with R(0) = 0:
    // answers still interpolate to f, but reveal nothing else [25].
    crypto::Prg shared(*spir_seed);
    const auto mask = field::Polynomial<field::Fp64>::random_with_constant(
        field_, degree_, field_.zero(), shared);
    value = field_.add(value, mask.eval(field_.from_u64(server_id + 1)));
  }
  Writer w;
  w.u64(value);
  return w.take();
}

std::uint64_t InstanceHiding::decode(const std::vector<Bytes>& answers,
                                     const ClientState& state) const {
  if (answers.size() != k_ || state.abscissae.size() != k_) {
    throw InvalidArgument("instance hiding: need one answer per server");
  }
  std::vector<std::uint64_t> ys(k_);
  for (std::size_t h = 0; h < k_; ++h) ys[h] = parse_answer(field_, answers[h]);
  return field::interpolate_at(field_, state.abscissae, ys, field_.zero());
}

std::uint64_t InstanceHiding::run(net::StarNetwork& net, std::span<const std::uint64_t> database,
                                  const std::vector<std::size_t>& indices,
                                  const std::optional<crypto::Prg::Seed>& spir_seed,
                                  crypto::Prg& prg) const {
  if (net.num_servers() != k_) {
    throw InvalidArgument("instance hiding: network has wrong server count");
  }
  check_database(database);
  SPFE_OBS_SPAN("multiserver.run");
  ClientState state;
  std::vector<Bytes> received(k_);
  {
    SPFE_OBS_SPAN("multiserver.queries");
    const auto queries = make_queries(indices, state, prg);
    for (std::size_t h = 0; h < k_; ++h) net.client_send(h, queries[h]);
    for (std::size_t h = 0; h < k_; ++h) received[h] = net.server_receive(h);
  }
  // The k servers evaluate concurrently (each answer() is pure in shared
  // state), then enqueue sequentially in server order so CommStats metering
  // and round detection stay byte-identical to a serial run.
  const crypto::Prg::Seed* seed = spir_seed ? &*spir_seed : nullptr;
  std::vector<Bytes> answers(k_);
  {
    SPFE_OBS_SPAN("multiserver.answers");
    common::parallel_for(k_, [&](std::size_t h) {
      answers[h] = answer(h, database, received[h], seed);
    });
    for (std::size_t h = 0; h < k_; ++h) net.server_send(h, std::move(answers[h]));
    for (std::size_t h = 0; h < k_; ++h) answers[h] = net.client_receive(h);
  }
  SPFE_OBS_SPAN("multiserver.decode");
  return decode(answers, state);
}

net::RobustResult InstanceHiding::run_robust(net::SimStarNetwork& net,
                                             std::span<const std::uint64_t> database,
                                             const std::vector<std::size_t>& indices,
                                             const std::optional<crypto::Prg::Seed>& spir_seed,
                                             crypto::Prg& prg,
                                             const net::RobustConfig& cfg) const {
  if (net.num_servers() != k_) {
    throw InvalidArgument("instance hiding: network has wrong server count");
  }
  check_database(database);
  SPFE_OBS_SPAN("multiserver.run_robust");
  auto [value, report] = net::run_robust_star(
      field_, net, degree_, cfg,
      [&](std::size_t /*attempt*/, std::vector<std::uint64_t>& abscissae) {
        // Fresh curve from `prg` every attempt: query points are never
        // reused, so retries leak nothing about the selected indices.
        ClientState state;
        auto queries = make_queries(indices, state, prg);
        abscissae = std::move(state.abscissae);
        return queries;
      },
      [&](std::size_t s, std::size_t attempt, Bytes query) {
        const auto seed = net::attempt_spir_seed(spir_seed, attempt);
        return answer(s, database, query, seed ? &*seed : nullptr);
      },
      [&](const Bytes& ans) { return parse_answer(field_, ans); });
  return net::RobustResult{value, std::move(report)};
}

PolyItPir::PolyItPir(field::Fp64 field, std::size_t n, std::size_t num_servers,
                     std::size_t threshold)
    : InstanceHiding(field, n, 1, num_servers, threshold, std::nullopt) {}

std::size_t PolyItPir::min_servers(std::size_t n, std::size_t threshold) {
  return threshold * selection_bits(n) + 1;
}

std::vector<Bytes> PolyItPir::make_queries(std::size_t index, ClientState& state,
                                           crypto::Prg& prg) const {
  return InstanceHiding::make_queries({index}, state, prg);
}

std::uint64_t PolyItPir::run(net::StarNetwork& net, std::span<const std::uint64_t> database,
                             std::size_t index,
                             const std::optional<crypto::Prg::Seed>& spir_seed,
                             crypto::Prg& prg) const {
  return InstanceHiding::run(net, database, {index}, spir_seed, prg);
}

net::RobustResult PolyItPir::run_robust(net::SimStarNetwork& net,
                                        std::span<const std::uint64_t> database,
                                        std::size_t index,
                                        const std::optional<crypto::Prg::Seed>& spir_seed,
                                        crypto::Prg& prg, const net::RobustConfig& cfg) const {
  return InstanceHiding::run_robust(net, database, {index}, spir_seed, prg, cfg);
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
