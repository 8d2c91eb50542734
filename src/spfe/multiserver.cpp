#include "spfe/multiserver.h"

#include "common/error.h"
#include "common/parallel.h"
#include "common/serialize.h"
#include "obs/obs.h"
#include "field/polynomial.h"
#include "field/reed_solomon.h"
#include "pir/itpir.h"

namespace spfe::protocols {
namespace {

std::size_t index_bits_for(std::size_t n) {
  std::size_t l = 0;
  while ((std::size_t(1) << l) < n) ++l;
  return std::max<std::size_t>(l, 1);
}

// Encodes `indices` as m*l field elements, block j = bits of indices[j],
// leftmost (most significant) bit first — the paper's j(k) convention.
std::vector<std::uint64_t> encode_index_bits(const std::vector<std::size_t>& indices,
                                             std::size_t l) {
  std::vector<std::uint64_t> out;
  out.reserve(indices.size() * l);
  for (const std::size_t i : indices) {
    for (std::size_t k = 0; k < l; ++k) out.push_back((i >> (l - 1 - k)) & 1);
  }
  return out;
}

// Client query generation shared by both protocol variants: a uniform
// degree-t curve through the encoded point, evaluated at alpha_h = h+1.
std::vector<Bytes> curve_queries(const field::Fp64& field,
                                 const std::vector<std::uint64_t>& point, std::size_t k,
                                 std::size_t t, std::vector<std::uint64_t>& abscissae,
                                 crypto::Prg& prg) {
  std::vector<field::Polynomial<field::Fp64>> curve;
  curve.reserve(point.size());
  for (const std::uint64_t coord : point) {
    curve.push_back(
        field::Polynomial<field::Fp64>::random_with_constant(field, t, coord, prg));
  }
  abscissae.resize(k);
  std::vector<Bytes> msgs;
  msgs.reserve(k);
  for (std::size_t h = 0; h < k; ++h) {
    const std::uint64_t alpha = field.from_u64(h + 1);
    abscissae[h] = alpha;
    Writer w;
    for (const auto& c : curve) w.u64(c.eval(alpha));
    msgs.push_back(w.take());
  }
  return msgs;
}

std::vector<std::uint64_t> parse_point(const field::Fp64& field, BytesView query,
                                       std::size_t expected) {
  Reader r(query);
  std::vector<std::uint64_t> point(expected);
  for (auto& p : point) {
    p = r.u64();
    if (p >= field.modulus()) throw ProtocolError("multi-server SPFE: point out of field");
  }
  r.expect_done();
  return point;
}

std::uint64_t spir_mask(const field::Fp64& field, std::size_t degree, std::size_t server_id,
                        const crypto::Prg::Seed& seed) {
  crypto::Prg shared(seed);
  const auto mask = field::Polynomial<field::Fp64>::random_with_constant(
      field, degree, field.zero(), shared);
  return mask.eval(field.from_u64(server_id + 1));
}

std::vector<std::uint64_t> parse_answers(const field::Fp64& field,
                                         const std::vector<std::uint64_t>& abscissae,
                                         const std::vector<Bytes>& answers) {
  if (answers.size() != abscissae.size()) {
    throw InvalidArgument("multi-server SPFE: answer count mismatch");
  }
  std::vector<std::uint64_t> ys(answers.size());
  for (std::size_t h = 0; h < answers.size(); ++h) {
    Reader r(answers[h]);
    ys[h] = r.u64();
    r.expect_done();
    if (ys[h] >= field.modulus()) throw ProtocolError("multi-server SPFE: answer out of field");
  }
  return ys;
}

std::uint64_t interpolate_answers(const field::Fp64& field,
                                  const std::vector<std::uint64_t>& abscissae,
                                  const std::vector<Bytes>& answers) {
  const auto ys = parse_answers(field, abscissae, answers);
  return field::interpolate_at(field, abscissae, ys, field.zero());
}

std::uint64_t decode_answers_with_errors(const field::Fp64& field,
                                         const std::vector<std::uint64_t>& abscissae,
                                         const std::vector<Bytes>& answers, std::size_t degree,
                                         std::size_t max_errors) {
  const auto ys = parse_answers(field, abscissae, answers);
  const auto result =
      field::berlekamp_welch(field, abscissae, ys, degree, max_errors, field.zero());
  if (!result.has_value()) {
    throw ProtocolError("multi-server SPFE: more corrupted answers than the error budget");
  }
  return *result;
}

void check_common(const field::Fp64& field, std::size_t n, std::size_t k, std::size_t t,
                  std::size_t degree) {
  if (n == 0) throw InvalidArgument("multi-server SPFE: empty database");
  if (t == 0) throw InvalidArgument("multi-server SPFE: threshold must be >= 1");
  if (k <= degree * t) {
    throw InvalidArgument("multi-server SPFE: need more than deg(P)*t servers");
  }
  if (field.modulus() <= k) {
    throw InvalidArgument("multi-server SPFE: field must exceed the server count");
  }
}

template <typename Protocol>
std::uint64_t run_star(const Protocol& proto, net::StarNetwork& net,
                       std::span<const std::uint64_t> database,
                       const std::vector<std::size_t>& indices,
                       const std::optional<crypto::Prg::Seed>& spir_seed, crypto::Prg& prg) {
  SPFE_OBS_SPAN("multiserver.run");
  typename Protocol::ClientState state;
  std::vector<Bytes> received;
  {
    SPFE_OBS_SPAN("multiserver.queries");
    const auto queries = proto.make_queries(indices, state, prg);
    for (std::size_t h = 0; h < queries.size(); ++h) net.client_send(h, queries[h]);
    received.resize(queries.size());
    for (std::size_t h = 0; h < queries.size(); ++h) received[h] = net.server_receive(h);
  }
  // The k servers evaluate concurrently (each answer() is pure in shared
  // state), then enqueue sequentially in server order so CommStats metering
  // and round detection stay byte-identical to a serial run.
  const crypto::Prg::Seed* seed = spir_seed ? &*spir_seed : nullptr;
  std::vector<Bytes> answers;
  {
    SPFE_OBS_SPAN("multiserver.answers");
    std::vector<Bytes> computed(received.size());
    common::parallel_for(received.size(), [&](std::size_t h) {
      computed[h] = proto.answer(h, database, received[h], seed);
    });
    for (std::size_t h = 0; h < computed.size(); ++h) net.server_send(h, std::move(computed[h]));
    answers.reserve(received.size());
    for (std::size_t h = 0; h < received.size(); ++h) answers.push_back(net.client_receive(h));
  }
  SPFE_OBS_SPAN("multiserver.decode");
  return proto.decode(answers, state);
}

// Robust exchange shared by both variants; `degree` is the answer
// polynomial's degree deg(P)*t (also the SPIR mask degree).
template <typename Protocol>
net::RobustResult run_robust_protocol(const Protocol& proto, const field::Fp64& field,
                                      std::size_t degree, net::SimStarNetwork& net,
                                      std::span<const std::uint64_t> database,
                                      const std::vector<std::size_t>& indices,
                                      const std::optional<crypto::Prg::Seed>& spir_seed,
                                      crypto::Prg& prg, const net::RobustConfig& cfg) {
  if (net.num_servers() != proto.num_servers()) {
    throw InvalidArgument("multi-server SPFE: network has wrong server count");
  }
  SPFE_OBS_SPAN("multiserver.run_robust");
  auto [value, report] = net::run_robust_star(
      field, net, degree, cfg,
      [&](std::size_t /*attempt*/, std::vector<std::uint64_t>& abscissae) {
        // Fresh curve from `prg` every attempt: query points are never
        // reused, so retries leak nothing about the selected indices.
        typename Protocol::ClientState state;
        auto queries = proto.make_queries(indices, state, prg);
        abscissae = std::move(state.abscissae);
        return queries;
      },
      [&](std::size_t s, std::size_t attempt, Bytes query) {
        const auto seed = net::attempt_spir_seed(spir_seed, attempt);
        return proto.answer(s, database, query, seed ? &*seed : nullptr);
      },
      [&](const Bytes& ans) {
        Reader r(ans);
        const std::uint64_t y = r.u64();
        r.expect_done();
        if (y >= field.modulus()) {
          throw ProtocolError("multi-server SPFE: answer out of field");
        }
        return y;
      });
  return net::RobustResult{value, std::move(report)};
}

}  // namespace

MultiServerFormulaSpfe::MultiServerFormulaSpfe(field::Fp64 field, circuits::Formula formula,
                                               std::size_t n, std::size_t num_servers,
                                               std::size_t threshold)
    : field_(field),
      formula_(std::move(formula)),
      n_(n),
      m_(formula_.arity()),
      k_(num_servers),
      t_(threshold),
      l_(index_bits_for(n)),
      degree_(formula_.arith_degree(l_)) {
  if (m_ == 0) throw InvalidArgument("MultiServerFormulaSpfe: formula has no inputs");
  check_common(field_, n, k_, t_, degree_);
}

std::size_t MultiServerFormulaSpfe::min_servers(const circuits::Formula& formula, std::size_t n,
                                                std::size_t threshold) {
  return formula.arith_degree(index_bits_for(n)) * threshold + 1;
}

std::vector<std::uint64_t> MultiServerFormulaSpfe::encode_indices(
    const std::vector<std::size_t>& indices) const {
  if (indices.size() != m_) throw InvalidArgument("MultiServerFormulaSpfe: need m indices");
  for (const std::size_t i : indices) {
    if (i >= n_) throw InvalidArgument("MultiServerFormulaSpfe: index out of range");
  }
  return encode_index_bits(indices, l_);
}

std::vector<Bytes> MultiServerFormulaSpfe::make_queries(const std::vector<std::size_t>& indices,
                                                        ClientState& state,
                                                        crypto::Prg& prg) const {
  return curve_queries(field_, encode_indices(indices), k_, t_, state.abscissae, prg);
}

Bytes MultiServerFormulaSpfe::answer(std::size_t server_id,
                                     std::span<const std::uint64_t> database, BytesView query,
                                     const crypto::Prg::Seed* spir_seed) const {
  if (database.size() != n_) throw InvalidArgument("MultiServerFormulaSpfe: database size");
  if (server_id >= k_) throw InvalidArgument("MultiServerFormulaSpfe: server id");
  for (const std::uint64_t x : database) {
    if (x > 1) throw InvalidArgument("MultiServerFormulaSpfe: database entries must be bits");
  }
  const auto point = parse_point(field_, query, m_ * l_);
  // Leaf value j = P0 evaluated on coordinate block j.
  std::vector<std::uint64_t> leaf_values(m_);
  for (std::size_t j = 0; j < m_; ++j) {
    leaf_values[j] = pir::eval_selection_polynomial(
        field_, database, std::span<const std::uint64_t>(point.data() + j * l_, l_));
  }
  std::uint64_t value = formula_.eval_arithmetized(field_, leaf_values);
  if (spir_seed != nullptr) {
    value = field_.add(value, spir_mask(field_, degree_ * t_, server_id, *spir_seed));
  }
  Writer w;
  w.u64(value);
  return w.take();
}

std::uint64_t MultiServerFormulaSpfe::decode(const std::vector<Bytes>& answers,
                                             const ClientState& state) const {
  return interpolate_answers(field_, state.abscissae, answers);
}

std::uint64_t MultiServerFormulaSpfe::decode_with_errors(const std::vector<Bytes>& answers,
                                                         const ClientState& state,
                                                         std::size_t max_errors) const {
  return decode_answers_with_errors(field_, state.abscissae, answers, degree_ * t_, max_errors);
}

std::uint64_t MultiServerFormulaSpfe::run(net::StarNetwork& net,
                                          std::span<const std::uint64_t> database,
                                          const std::vector<std::size_t>& indices,
                                          const std::optional<crypto::Prg::Seed>& spir_seed,
                                          crypto::Prg& prg) const {
  return run_star(*this, net, database, indices, spir_seed, prg);
}

net::RobustResult MultiServerFormulaSpfe::run_robust(
    net::SimStarNetwork& net, std::span<const std::uint64_t> database,
    const std::vector<std::size_t>& indices, const std::optional<crypto::Prg::Seed>& spir_seed,
    crypto::Prg& prg, const net::RobustConfig& cfg) const {
  return run_robust_protocol(*this, field_, degree_ * t_, net, database, indices, spir_seed, prg,
                             cfg);
}

MultiServerSumSpfe::MultiServerSumSpfe(field::Fp64 field, std::size_t n, std::size_t m,
                                       std::size_t num_servers, std::size_t threshold)
    : field_(field), n_(n), m_(m), k_(num_servers), t_(threshold), l_(index_bits_for(n)) {
  if (m == 0) throw InvalidArgument("MultiServerSumSpfe: m must be positive");
  check_common(field_, n, k_, t_, l_);
}

std::size_t MultiServerSumSpfe::min_servers(std::size_t n, std::size_t threshold) {
  return index_bits_for(n) * threshold + 1;
}

std::vector<Bytes> MultiServerSumSpfe::make_queries(const std::vector<std::size_t>& indices,
                                                    ClientState& state, crypto::Prg& prg) const {
  if (indices.size() != m_) throw InvalidArgument("MultiServerSumSpfe: need m indices");
  for (const std::size_t i : indices) {
    if (i >= n_) throw InvalidArgument("MultiServerSumSpfe: index out of range");
  }
  return curve_queries(field_, encode_index_bits(indices, l_), k_, t_, state.abscissae, prg);
}

Bytes MultiServerSumSpfe::answer(std::size_t server_id, std::span<const std::uint64_t> database,
                                 BytesView query, const crypto::Prg::Seed* spir_seed) const {
  if (database.size() != n_) throw InvalidArgument("MultiServerSumSpfe: database size");
  if (server_id >= k_) throw InvalidArgument("MultiServerSumSpfe: server id");
  const auto point = parse_point(field_, query, m_ * l_);
  std::uint64_t value = field_.zero();
  for (std::size_t j = 0; j < m_; ++j) {
    value = field_.add(value, pir::eval_selection_polynomial(
                                  field_, database,
                                  std::span<const std::uint64_t>(point.data() + j * l_, l_)));
  }
  if (spir_seed != nullptr) {
    value = field_.add(value, spir_mask(field_, l_ * t_, server_id, *spir_seed));
  }
  Writer w;
  w.u64(value);
  return w.take();
}

std::uint64_t MultiServerSumSpfe::decode(const std::vector<Bytes>& answers,
                                         const ClientState& state) const {
  return interpolate_answers(field_, state.abscissae, answers);
}

std::uint64_t MultiServerSumSpfe::decode_with_errors(const std::vector<Bytes>& answers,
                                                     const ClientState& state,
                                                     std::size_t max_errors) const {
  return decode_answers_with_errors(field_, state.abscissae, answers, l_ * t_, max_errors);
}

std::uint64_t MultiServerSumSpfe::run(net::StarNetwork& net,
                                      std::span<const std::uint64_t> database,
                                      const std::vector<std::size_t>& indices,
                                      const std::optional<crypto::Prg::Seed>& spir_seed,
                                      crypto::Prg& prg) const {
  return run_star(*this, net, database, indices, spir_seed, prg);
}

net::RobustResult MultiServerSumSpfe::run_robust(net::SimStarNetwork& net,
                                                 std::span<const std::uint64_t> database,
                                                 const std::vector<std::size_t>& indices,
                                                 const std::optional<crypto::Prg::Seed>& spir_seed,
                                                 crypto::Prg& prg,
                                                 const net::RobustConfig& cfg) const {
  return run_robust_protocol(*this, field_, l_ * t_, net, database, indices, spir_seed, prg, cfg);
}

}  // namespace spfe::protocols
