#include "spfe/stats.h"

#include <algorithm>
#include <bit>

#include "common/error.h"
#include "common/serialize.h"
#include "obs/obs.h"
#include "pir/batch_pir.h"
#include "spfe/detail.h"

namespace spfe::protocols {
namespace {

using bignum::BigInt;
using detail::check_blinding_headroom;
using detail::kStatBits;
using detail::mask_database;
using detail::read_ct;
using detail::write_ct;
using u128 = unsigned __int128;

void check_stat_inputs(std::span<const std::uint64_t> database,
                       const std::vector<std::size_t>& indices, std::size_t n, std::size_t m,
                       std::uint64_t p) {
  if (database.size() != n) throw InvalidArgument("statistics: database size mismatch");
  if (indices.size() != m) throw InvalidArgument("statistics: need exactly m indices");
  for (const std::size_t i : indices) {
    if (i >= n) throw InvalidArgument("statistics: index out of range");
  }
  for (const std::uint64_t x : database) {
    if (x >= p) throw InvalidArgument("statistics: database value exceeds field");
  }
}

// The server's squares view x''_i = x_i^2 of the §4 package. Throws unless
// m * x^2 < p for every entry, so that the sum of m selected squares
// cannot wrap mod p.
std::vector<std::uint64_t> squares_of(std::span<const std::uint64_t> database, std::uint64_t p,
                                      std::size_t m) {
  std::vector<std::uint64_t> squares(database.size());
  for (std::size_t i = 0; i < database.size(); ++i) {
    const u128 square = static_cast<u128>(database[i]) * database[i];
    if (square > (p - 1) / m) {
      throw InvalidArgument("statistics: m * x^2 must be below the field modulus");
    }
    squares[i] = static_cast<std::uint64_t>(square);
  }
  return squares;
}

// L = bit_width(m*(2^B - 1)): the low lane of the packed view holds any
// sum of m values below 2^B. Callers ensure that sum fits 64 bits.
std::size_t packed_lane_bits(std::size_t m, std::size_t value_bits) {
  return static_cast<std::size_t>(std::bit_width(m * ((std::uint64_t{1} << value_bits) - 1)));
}

// Largest B with m*(2^B - 1)^2 * 2^L + m*(2^B - 1) < p, L as above: the
// values whose x and x^2 sums over m selected entries share one field
// element without wrapping.
std::size_t packed_value_bits(std::uint64_t p, std::size_t m) {
  const auto fits = [&](std::size_t bits) {
    const u128 max = (u128{1} << bits) - 1;
    const u128 sum = max * m;
    if (sum >= p) return false;
    const u128 squares = sum * max;
    return squares <= (p - 1 - sum) >> packed_lane_bits(m, bits);
  };
  std::size_t bits = 0;
  while (fits(bits + 1)) ++bits;
  return bits;
}

MeanVarianceResult mean_variance_of(std::uint64_t sum, std::uint64_t sum_of_squares,
                                    std::size_t m) {
  MeanVarianceResult result;
  result.sum = sum;
  result.sum_of_squares = sum_of_squares;
  const double md = static_cast<double>(m);
  result.mean = static_cast<double>(sum) / md;
  result.variance = static_cast<double>(sum_of_squares) / md - result.mean * result.mean;
  return result;
}

// Lane v of a packed SPIR item: its bits [v·L, (v+1)·L).
std::uint64_t lane(const BigInt& packed, std::size_t v, std::size_t lane_bits) {
  const BigInt high = packed >> (v * lane_bits);
  return (high - ((high >> lane_bits) << lane_bits)).to_u64();
}

// The §4 one-round masked-sum exchange over the server's views of the
// database (`views[0]` is x itself): the client sends one SPIR(n, m, V·L)
// query, where L is the bit length of p - 1, plus E(c_0..c_{m-1}) with
// c_k = sum_j w_j (i_j + 1)^k. The server masks each view v with a fresh
// P_s^(v), answers the query once over the packed items
// sum_v x^(v)'_i · 2^(v·L), where x^(v)'_i = x^(v)_i + P_s^(v)(i+1) < p <= 2^L
// so no lane carries into the next, and replies per view with
// E(sum_k s_k c_k) = E(sum_j w_j P_s(i_j + 1)), blinded by a multiple of p.
// Returns sum_j w_j v_{i_j} for every view v. A `precomp` pool keyed for
// the client serves the client's encryptions; otherwise they draw from
// `client_prg`.
std::vector<std::uint64_t> masked_weighted_sums(
    const field::Fp64& field, std::size_t n, std::size_t pir_depth, net::StarNetwork& net,
    std::size_t server_id, const std::vector<std::span<const std::uint64_t>>& views,
    const std::vector<std::size_t>& indices, const std::vector<std::uint64_t>& weights,
    const he::PaillierPrivateKey& client_sk, crypto::Prg& client_prg, crypto::Prg& server_prg,
    const he::ClientPrecomp& precomp) {
  const std::uint64_t p = field.modulus();
  const std::size_t m = weights.size();
  check_stat_inputs(views[0], indices, n, m, p);
  const he::PaillierPublicKey& pk = client_sk.public_key();
  check_blinding_headroom(pk, BigInt(m) * BigInt(p) * BigInt(p));
  const pir::CuckooBatchPir spir(pk, n, m, pir_depth);
  const std::size_t lane_bits = static_cast<std::size_t>(std::bit_width(p - 1));
  const std::size_t item_bytes = (views.size() * lane_bits + 7) / 8;

  // Client round-1: the SPIR query + E(c_k).
  he::PaillierRandomnessPool* pool =
      precomp.paillier != nullptr && precomp.paillier->public_key() == pk ? precomp.paillier
                                                                          : nullptr;
  pir::CuckooBatchPir::ClientState pir_state;
  {
    Writer w;
    w.bytes(spir.make_query(client_sk, indices, pir_state, client_prg, pool));
    for (std::size_t k = 0; k < m; ++k) {
      std::uint64_t c_k = 0;
      for (std::size_t j = 0; j < m; ++j) {
        // Powers of (i_j + 1) — matching the server's mask evaluation points.
        const std::uint64_t power = field.pow(field.from_u64(indices[j] + 1), k);
        c_k = field.add(c_k, field.mul(field.from_u64(weights[j]), power));
      }
      write_ct(w, pk,
               pool != nullptr ? pool->encrypt(BigInt(c_k))
                               : client_sk.encrypt(BigInt(c_k), client_prg));
    }
    net.client_send(server_id, w.take());
  }

  // Server: every view's mask polynomial, one SPIR answer over the packed
  // masked views, then per view E(sum_k s_k c_k + blind).
  {
    Reader r(net.server_receive(server_id));
    const Bytes pir_query = r.bytes();
    std::vector<BigInt> c_cts(m);
    for (auto& c : c_cts) c = read_ct(r, pk);
    r.expect_done();

    std::vector<std::vector<std::uint64_t>> masks(views.size(), std::vector<std::uint64_t>(m));
    for (auto& s : masks) {
      for (auto& coeff : s) coeff = server_prg.uniform(p);
    }
    std::vector<BigInt> packed(n);
    for (std::size_t v = 0; v < views.size(); ++v) {
      const std::vector<std::uint64_t> masked = mask_database(views[v], masks[v], field);
      for (std::size_t i = 0; i < n; ++i) packed[i] += BigInt(masked[i]) << (v * lane_bits);
    }
    std::vector<Bytes> items(n);
    for (std::size_t i = 0; i < n; ++i) items[i] = packed[i].to_bytes_be_padded(item_bytes);

    Writer w;
    w.bytes(spir.answer_bytes(items, item_bytes, pir_query, server_prg));
    for (const std::vector<std::uint64_t>& s : masks) {
      std::vector<BigInt> s_big(m);
      for (std::size_t k = 0; k < m; ++k) s_big[k] = BigInt(s[k]);
      BigInt acc = pk.add(pk.encrypt(BigInt(0), server_prg), pk.mul_scalar_sum(c_cts, s_big));
      // Blind with a multiple of p: the client learns the value only mod p.
      const BigInt rho = BigInt::random_below(server_prg, (BigInt(m) * BigInt(p)) << kStatBits);
      acc = pk.add(acc, pk.encrypt(rho * BigInt(p), server_prg));
      write_ct(w, pk, acc);
    }
    net.server_send(server_id, w.take());
  }

  // Client: one decode, then per view
  // sum_j w_j x'_{i_j} - sum_j w_j P_s(i_j + 1) over that view's lane.
  Reader r(net.client_receive(server_id));
  const std::vector<Bytes> items = spir.decode_bytes(client_sk, item_bytes, r.bytes(), pir_state);
  std::vector<BigInt> packed(m);
  for (std::size_t j = 0; j < m; ++j) packed[j] = BigInt::from_bytes_be(items[j]);
  std::vector<std::uint64_t> sums;
  for (std::size_t v = 0; v < views.size(); ++v) {
    const std::uint64_t mask_sum =
        client_sk.decrypt(read_ct(r, pk)).mod_floor(BigInt(p)).to_u64();
    std::uint64_t weighted = 0;
    for (std::size_t j = 0; j < m; ++j) {
      weighted = field.add(weighted,
                           field.mul(field.from_u64(weights[j]), lane(packed[j], v, lane_bits)));
    }
    sums.push_back(field.sub(weighted, mask_sum));
  }
  r.expect_done();
  return sums;
}

}  // namespace

WeightedSumProtocol::WeightedSumProtocol(field::Fp64 field, std::size_t n, std::size_t m,
                                         std::size_t pir_depth)
    : field_(field), n_(n), m_(m), pir_depth_(pir_depth) {
  if (field.modulus() <= n) {
    throw InvalidArgument("WeightedSumProtocol: field must exceed the database size");
  }
  if (m == 0 || n == 0) throw InvalidArgument("WeightedSumProtocol: empty selection");
}

std::uint64_t WeightedSumProtocol::run(net::StarNetwork& net, std::size_t server_id,
                                       std::span<const std::uint64_t> database,
                                       const std::vector<std::size_t>& indices,
                                       const std::vector<std::uint64_t>& weights,
                                       const he::PaillierPrivateKey& client_sk,
                                       crypto::Prg& client_prg, crypto::Prg& server_prg) const {
  SPFE_OBS_SPAN("stats.weighted_sum");
  if (weights.size() != m_) throw InvalidArgument("WeightedSumProtocol: need m weights");
  return masked_weighted_sums(field_, n_, pir_depth_, net, server_id, {database}, indices,
                              weights, client_sk, client_prg, server_prg, {})[0];
}

MeanVariancePackage::MeanVariancePackage(field::Fp64 field, std::size_t n, std::size_t m,
                                         std::size_t pir_depth)
    : field_(field), n_(n), m_(m), pir_depth_(pir_depth) {
  if (field.modulus() <= n) {
    throw InvalidArgument("MeanVariancePackage: field must exceed the database size");
  }
  if (m == 0 || n == 0) throw InvalidArgument("MeanVariancePackage: empty selection");
}

MeanVarianceResult MeanVariancePackage::run(net::StarNetwork& net, std::size_t server_id,
                                            std::span<const std::uint64_t> database,
                                            const std::vector<std::size_t>& indices,
                                            const he::PaillierPrivateKey& client_sk,
                                            crypto::Prg& client_prg, crypto::Prg& server_prg,
                                            const he::ClientPrecomp& precomp) const {
  // The weighted-sum exchange with unit weights over the views {x, x^2}.
  const std::vector<std::uint64_t> squares = squares_of(database, field_.modulus(), m_);
  const std::vector<std::uint64_t> sums = masked_weighted_sums(
      field_, n_, pir_depth_, net, server_id, {database, squares}, indices,
      std::vector<std::uint64_t>(m_, 1), client_sk, client_prg, server_prg, precomp);
  return mean_variance_of(sums[0], sums[1], m_);
}

RobustStatsSession::RobustStatsSession(field::Fp64 field, std::size_t n, std::size_t m,
                                       std::size_t num_servers, std::size_t threshold,
                                       const crypto::Prg::Seed& session_seed,
                                       RobustStatsConfig config)
    : proto_(field, n, m, num_servers, threshold),
      value_bits_(packed_value_bits(field.modulus(), m)),
      lane_bits_(packed_lane_bits(m, value_bits_)),
      config_(config),
      prg_(session_seed),
      health_(num_servers),
      blame_(num_servers) {}

net::RobustConfig RobustStatsSession::next_query_config() {
  // 50 ms attempts; the attempt count and the backoff keep
  // net::RobustConfig's defaults.
  net::RobustConfig cfg;
  cfg.byzantine_budget = config_.byzantine_budget;
  cfg.timing.attempt_timeout_us = 50'000;
  cfg.timing.hedge_spares = config_.hedge_spares;
  if (config_.hedge_spares > 0) {
    cfg.timing.hedge_timeout_us =
        std::max<std::uint64_t>(50, health_.latency_quantile_us(0.95, 2'000));
  }
  cfg.timing.backoff_seed =
      prg_.fork_seed("backoff-" + std::to_string(query_no_));
  // Healthy servers first; the demoted tail serves as hedge spares.
  cfg.timing.send_order = health_.ranked_order();
  return cfg;
}

net::RobustResult RobustStatsSession::run_one(net::SimStarNetwork& net,
                                              std::span<const std::uint64_t> database,
                                              const std::vector<std::size_t>& indices,
                                              const std::optional<crypto::Prg::Seed>& spir_seed) {
  const net::RobustConfig cfg = next_query_config();
  crypto::Prg qprg = prg_.fork("query-" + std::to_string(query_no_));
  // A query counts once it reached the network: a call refused before any
  // message (InvalidArgument) leaves the count and the later seeds alone.
  try {
    net::RobustResult result = proto_.run_robust(net, database, indices, spir_seed, qprg, cfg);
    ++query_no_;
    health_.observe(result.report);
    tally_blame(result.report);
    return result;
  } catch (const net::RobustProtocolError& e) {
    ++query_no_;
    // A terminal failure is still evidence about who misbehaved.
    health_.observe(e.report());
    tally_blame(e.report());
    throw;
  }
}

void RobustStatsSession::tally_blame(const net::RobustnessReport& report) {
  // Every attempt counts: a liar exposed on attempt 0 stays in the tally
  // when the retry succeeds.
  for (const net::AttemptRecord& rec : report.history) {
    for (std::size_t s = 0; s < rec.verdicts.size() && s < blame_.size(); ++s) {
      switch (rec.verdicts[s].blame) {
        case net::Blame::kNone:
          break;
        case net::Blame::kByzantine:
          ++blame_[s].byzantine;
          break;
        case net::Blame::kCrashed:
          ++blame_[s].crashed;
          break;
        case net::Blame::kStraggler:
          ++blame_[s].straggler;
          break;
      }
    }
  }
}

net::RobustResult RobustStatsSession::sum(net::SimStarNetwork& net,
                                          std::span<const std::uint64_t> database,
                                          const std::vector<std::size_t>& indices,
                                          const std::optional<crypto::Prg::Seed>& spir_seed) {
  SPFE_OBS_SPAN("stats.robust_sum");
  return run_one(net, database, indices, spir_seed);
}

MeanVarianceResult RobustStatsSession::mean_variance(
    net::SimStarNetwork& net, std::span<const std::uint64_t> database,
    const std::vector<std::size_t>& indices, const std::optional<crypto::Prg::Seed>& spir_seed,
    net::RobustnessReport* sum_report, net::RobustnessReport* squares_report) {
  SPFE_OBS_SPAN("stats.robust_mean_variance");
  // The packed view y_i = x_i + x_i^2 * 2^L. For x < 2^B, any m selected
  // entries sum below p (value_bits()), so the run decodes the integer
  // sum(x) + 2^L * sum(x^2) and sum(x) < 2^L fills the low lane alone.
  std::vector<std::uint64_t> packed(database.size());
  for (std::size_t i = 0; i < database.size(); ++i) {
    const std::uint64_t x = database[i];
    if ((x >> value_bits_) != 0) {
      throw InvalidArgument("RobustStatsSession: value at or above 2^value_bits()");
    }
    packed[i] = x + ((x * x) << lane_bits_);
  }
  net::RobustResult res = run_one(net, packed, indices, spir_seed);
  if (sum_report != nullptr) *sum_report = std::move(res.report);
  if (squares_report != nullptr) *squares_report = net::RobustnessReport{};
  const std::uint64_t low_lane = (std::uint64_t{1} << lane_bits_) - 1;
  return mean_variance_of(res.value & low_lane, res.value >> lane_bits_, indices.size());
}

FrequencyProtocol::FrequencyProtocol(field::Fp64 field, std::size_t n, std::size_t m,
                                     SelectionMethod method, std::size_t pir_depth)
    : field_(field), n_(n), m_(m), method_(method), pir_depth_(pir_depth) {}

std::size_t FrequencyProtocol::run(net::StarNetwork& net, std::size_t server_id,
                                   std::span<const std::uint64_t> database,
                                   const std::vector<std::size_t>& indices,
                                   std::uint64_t keyword,
                                   const he::PaillierPrivateKey& client_sk,
                                   const he::PaillierPrivateKey& server_sk,
                                   crypto::Prg& client_prg, crypto::Prg& server_prg) const {
  SPFE_OBS_SPAN("stats.frequency");
  const std::uint64_t p = field_.modulus();
  check_stat_inputs(database, indices, n_, m_, p);
  if (keyword >= p) throw InvalidArgument("FrequencyProtocol: keyword outside field");
  const he::PaillierPublicKey& pk = client_sk.public_key();
  check_blinding_headroom(pk, BigInt(p) * BigInt(p));

  // Phase 1: additive shares a_j + b_j = x_{i_j} mod p.
  const SelectedShares shares =
      run_input_selection(net, server_id, database, indices, p, method_, client_sk, server_sk,
                          pir_depth_, client_prg, server_prg);

  // Phase 2, client: E(b_j - keyword + p) (positive representative).
  {
    Writer w;
    for (std::size_t j = 0; j < m_; ++j) {
      const std::uint64_t t = field_.sub(shares.client_shares[j], keyword);
      write_ct(w, pk, client_sk.encrypt(BigInt(t), client_prg));
    }
    net.client_send(server_id, w.take());
  }

  // Phase 2, server: E(rho_j * (x - w) + p * sigma_j), randomly permuted.
  {
    Reader r(net.server_receive(server_id));
    std::vector<BigInt> cts(m_);
    for (std::size_t j = 0; j < m_; ++j) {
      BigInt ct = read_ct(r, pk);
      // plaintext: (b_j - w mod p) + a_j  ==  x - w (mod p), value < 2p.
      ct = pk.add(ct, pk.encrypt(BigInt(shares.server_shares[j]), server_prg));
      const std::uint64_t rho = 1 + server_prg.uniform(p - 1);  // nonzero
      ct = pk.mul_scalar(ct, BigInt(rho));
      const BigInt sigma =
          BigInt::random_below(server_prg, (BigInt(2) * BigInt(p)) << kStatBits);
      ct = pk.add(ct, pk.encrypt(sigma * BigInt(p), server_prg));
      cts[j] = pk.rerandomize(ct, server_prg);
    }
    r.expect_done();
    // Random permutation (Fisher-Yates) hides which positions matched.
    for (std::size_t j = m_; j > 1; --j) {
      std::swap(cts[j - 1], cts[server_prg.uniform(j)]);
    }
    Writer w;
    for (const BigInt& ct : cts) write_ct(w, pk, ct);
    net.server_send(server_id, w.take());
  }

  // Client: count values divisible by p.
  Reader r(net.client_receive(server_id));
  std::size_t count = 0;
  for (std::size_t j = 0; j < m_; ++j) {
    const BigInt v = client_sk.decrypt(read_ct(r, pk));
    if (v.mod_floor(BigInt(p)).is_zero()) ++count;
  }
  r.expect_done();
  return count;
}

}  // namespace spfe::protocols
