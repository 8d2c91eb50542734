#include "spfe/stats.h"

#include <algorithm>

#include "common/error.h"
#include "common/serialize.h"
#include "obs/obs.h"
#include "pir/batch_pir.h"

namespace spfe::protocols {
namespace {

using bignum::BigInt;

constexpr std::size_t kStatBits = 40;

std::uint64_t add_mod(std::uint64_t a, std::uint64_t b, std::uint64_t u) {
  return static_cast<std::uint64_t>((static_cast<unsigned __int128>(a) + b) % u);
}

std::uint64_t mul_mod(std::uint64_t a, std::uint64_t b, std::uint64_t u) {
  return static_cast<std::uint64_t>(static_cast<unsigned __int128>(a) * b % u);
}

void write_ct(Writer& w, const he::PaillierPublicKey& pk, const BigInt& ct) {
  w.raw(ct.to_bytes_be_padded(pk.ciphertext_bytes()));
}

BigInt read_ct(Reader& r, const he::PaillierPublicKey& pk) {
  return BigInt::from_bytes_be(r.raw(pk.ciphertext_bytes()));
}

// Masked database x'_i = x_i + P_s(i+1) mod p for coefficients s.
std::vector<std::uint64_t> mask_database(std::span<const std::uint64_t> database,
                                         const std::vector<std::uint64_t>& s, std::uint64_t p) {
  std::vector<std::uint64_t> masked(database.size());
  for (std::size_t i = 0; i < database.size(); ++i) {
    std::uint64_t acc = 0;
    for (std::size_t k = s.size(); k-- > 0;) {
      acc = add_mod(mul_mod(acc, (i + 1) % p, p), s[k], p);
    }
    masked[i] = add_mod(database[i] % p, acc, p);
  }
  return masked;
}

// The client-key pool, or null when absent/keyed differently.
he::PaillierRandomnessPool* pool_for(const he::ClientPrecomp& precomp,
                                     const he::PaillierPublicKey& pk) {
  return (precomp.paillier != nullptr && precomp.paillier->public_key() == pk)
             ? precomp.paillier
             : nullptr;
}

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
                                       crypto::Prg& client_prg, crypto::Prg& server_prg,
                                       const he::ClientPrecomp& precomp) const {
  SPFE_OBS_SPAN("stats.weighted_sum");
  const std::uint64_t p = field_.modulus();
  check_stat_inputs(database, indices, n_, m_, p);
  if (weights.size() != m_) throw InvalidArgument("WeightedSumProtocol: need m weights");
  const he::PaillierPublicKey& pk = client_sk.public_key();
  if ((BigInt(m_) * BigInt(p) * BigInt(p)) << (kStatBits + 2) >= pk.n()) {
    throw CryptoError("WeightedSumProtocol: Paillier modulus too small");
  }
  const pir::CuckooBatchPir spir(pk, n_, m_, pir_depth_);

  // Client round-1: SPIR query + E(c_0..c_{m-1}), c_k = sum_j w_j i_j^k.
  he::PaillierRandomnessPool* pool = pool_for(precomp, pk);
  pir::CuckooBatchPir::ClientState pir_state;
  {
    Writer w;
    w.bytes(spir.make_query(indices, pir_state, client_prg, pool));
    for (std::size_t k = 0; k < m_; ++k) {
      std::uint64_t c_k = 0;
      for (std::size_t j = 0; j < m_; ++j) {
        // Powers of (i_j + 1) — matching the server's mask evaluation points.
        std::uint64_t power = 1 % p;
        for (std::size_t e = 0; e < k; ++e) power = mul_mod(power, (indices[j] + 1) % p, p);
        c_k = add_mod(c_k, mul_mod(weights[j] % p, power, p), p);
      }
      write_ct(w, pk,
               pool != nullptr ? pool->encrypt(BigInt(c_k)) : pk.encrypt(BigInt(c_k), client_prg));
    }
    net.client_send(server_id, w.take());
  }

  // Server: masked database answer + E(sum_k s_k c_k + blind).
  {
    Reader r(net.server_receive(server_id));
    const Bytes pir_query = r.bytes();
    std::vector<BigInt> c_cts(m_);
    for (auto& c : c_cts) c = read_ct(r, pk);
    r.expect_done();

    std::vector<std::uint64_t> s(m_);
    for (auto& coeff : s) coeff = server_prg.uniform(p);
    const std::vector<std::uint64_t> masked = mask_database(database, s, p);

    Writer w;
    w.bytes(spir.answer_u64(masked, pir_query, server_prg));
    std::vector<BigInt> s_big(m_);
    for (std::size_t k = 0; k < m_; ++k) s_big[k] = BigInt(s[k]);
    BigInt acc = pk.add(pk.encrypt(BigInt(0), server_prg), pk.mul_scalar_sum(c_cts, s_big));
    // Blind with a multiple of p: the client learns the value only mod p.
    const BigInt rho = BigInt::random_below(server_prg, (BigInt(m_) * BigInt(p)) << kStatBits);
    acc = pk.add(acc, pk.encrypt(rho * BigInt(p), server_prg));
    write_ct(w, pk, acc);
    net.server_send(server_id, w.take());
  }

  // Client: sum_j w_j x'_{i_j} - sum_j w_j P_s(i_j).
  Reader r(net.client_receive(server_id));
  const std::vector<std::uint64_t> masked_items =
      spir.decode_u64(client_sk, r.bytes(), pir_state);
  const std::uint64_t mask_sum =
      client_sk.decrypt(read_ct(r, pk)).mod_floor(BigInt(p)).to_u64();
  r.expect_done();
  std::uint64_t weighted = 0;
  for (std::size_t j = 0; j < m_; ++j) {
    weighted = add_mod(weighted, mul_mod(weights[j] % p, masked_items[j], p), p);
  }
  return add_mod(weighted, p - mask_sum, p);
}

MeanVariancePackage::MeanVariancePackage(field::Fp64 field, std::size_t n, std::size_t m,
                                         std::size_t pir_depth)
    : field_(field), n_(n), m_(m), pir_depth_(pir_depth) {
  if (field.modulus() <= n) {
    throw InvalidArgument("MeanVariancePackage: field must exceed the database size");
  }
}

MeanVarianceResult MeanVariancePackage::run(net::StarNetwork& net, std::size_t server_id,
                                            std::span<const std::uint64_t> database,
                                            const std::vector<std::size_t>& indices,
                                            const he::PaillierPrivateKey& client_sk,
                                            crypto::Prg& client_prg, crypto::Prg& server_prg,
                                            const he::ClientPrecomp& precomp) const {
  const std::uint64_t p = field_.modulus();
  check_stat_inputs(database, indices, n_, m_, p);
  const he::PaillierPublicKey& pk = client_sk.public_key();
  if ((BigInt(m_) * BigInt(p) * BigInt(p)) << (kStatBits + 2) >= pk.n()) {
    throw CryptoError("MeanVariancePackage: Paillier modulus too small");
  }
  const pir::CuckooBatchPir spir(pk, n_, m_, pir_depth_);

  // Client round-1: one SPIR query (reused for both databases) + E(c_k)
  // with unit weights.
  he::PaillierRandomnessPool* pool = pool_for(precomp, pk);
  pir::CuckooBatchPir::ClientState pir_state;
  {
    Writer w;
    w.bytes(spir.make_query(indices, pir_state, client_prg, pool));
    for (std::size_t k = 0; k < m_; ++k) {
      std::uint64_t c_k = 0;
      for (std::size_t j = 0; j < m_; ++j) {
        std::uint64_t power = 1 % p;
        for (std::size_t e = 0; e < k; ++e) power = mul_mod(power, (indices[j] + 1) % p, p);
        c_k = add_mod(c_k, power, p);
      }
      write_ct(w, pk,
               pool != nullptr ? pool->encrypt(BigInt(c_k)) : pk.encrypt(BigInt(c_k), client_prg));
    }
    net.client_send(server_id, w.take());
  }

  // Server: answers the same selection over x and over x^2, with
  // independent mask polynomials ("it replies twice", §4).
  {
    Reader r(net.server_receive(server_id));
    const Bytes pir_query = r.bytes();
    std::vector<BigInt> c_cts(m_);
    for (auto& c : c_cts) c = read_ct(r, pk);
    r.expect_done();

    std::vector<std::uint64_t> squares(n_);
    for (std::size_t i = 0; i < n_; ++i) squares[i] = mul_mod(database[i], database[i], p);

    const std::span<const std::uint64_t> views[2] = {database, squares};
    Writer w;
    for (const std::span<const std::uint64_t> data : views) {
      std::vector<std::uint64_t> s(m_);
      for (auto& coeff : s) coeff = server_prg.uniform(p);
      w.bytes(spir.answer_u64(mask_database(data, s, p), pir_query, server_prg));
      std::vector<BigInt> s_big(m_);
      for (std::size_t k = 0; k < m_; ++k) s_big[k] = BigInt(s[k]);
      BigInt acc = pk.add(pk.encrypt(BigInt(0), server_prg), pk.mul_scalar_sum(c_cts, s_big));
      const BigInt rho =
          BigInt::random_below(server_prg, (BigInt(m_) * BigInt(p)) << kStatBits);
      acc = pk.add(acc, pk.encrypt(rho * BigInt(p), server_prg));
      write_ct(w, pk, acc);
    }
    net.server_send(server_id, w.take());
  }

  // Client: recover both aggregates.
  MeanVarianceResult result;
  Reader r(net.client_receive(server_id));
  std::uint64_t aggregates[2];
  for (int round = 0; round < 2; ++round) {
    const std::vector<std::uint64_t> masked_items =
        spir.decode_u64(client_sk, r.bytes(), pir_state);
    const std::uint64_t mask_sum =
        client_sk.decrypt(read_ct(r, pk)).mod_floor(BigInt(p)).to_u64();
    std::uint64_t total = 0;
    for (const std::uint64_t v : masked_items) total = add_mod(total, v, p);
    aggregates[round] = add_mod(total, p - mask_sum, p);
  }
  r.expect_done();
  result.sum = aggregates[0];
  result.sum_of_squares = aggregates[1];
  const double md = static_cast<double>(m_);
  result.mean = static_cast<double>(result.sum) / md;
  result.variance =
      static_cast<double>(result.sum_of_squares) / md - result.mean * result.mean;
  return result;
}

RobustStatsSession::RobustStatsSession(field::Fp64 field, std::size_t n, std::size_t m,
                                       std::size_t num_servers, std::size_t threshold,
                                       const crypto::Prg::Seed& session_seed,
                                       RobustStatsConfig config)
    : field_(field),
      proto_(field, n, m, num_servers, threshold),
      config_(config),
      prg_(session_seed),
      health_(num_servers),
      blame_(num_servers) {
  if (config_.max_attempts == 0) {
    throw InvalidArgument("RobustStatsSession: max_attempts must be >= 1");
  }
  if (config_.hedge_quantile <= 0.0 || config_.hedge_quantile > 1.0) {
    throw InvalidArgument("RobustStatsSession: hedge_quantile must be in (0, 1]");
  }
}

net::RobustConfig RobustStatsSession::next_query_config() {
  net::RobustConfig cfg;
  cfg.max_attempts = config_.max_attempts;
  cfg.byzantine_budget = config_.byzantine_budget;
  cfg.timing.attempt_timeout_us = config_.attempt_timeout_us;
  cfg.timing.hedge_spares = config_.hedge_spares;
  if (config_.hedge_spares > 0) {
    cfg.timing.hedge_timeout_us =
        std::max(config_.hedge_floor_us,
                 health_.latency_quantile_us(config_.hedge_quantile, config_.hedge_fallback_us));
  }
  cfg.timing.backoff_base_us = config_.backoff_base_us;
  cfg.timing.backoff_max_us = config_.backoff_max_us;
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
  ++query_no_;
  try {
    net::RobustResult result = proto_.run_robust(net, database, indices, spir_seed, qprg, cfg);
    health_.observe(result.report);
    tally_blame(result.report);
    return result;
  } catch (const net::RobustProtocolError& e) {
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
  const std::uint64_t p = field_.modulus();
  net::RobustResult sum_res = run_one(net, database, indices, spir_seed);
  if (sum_report != nullptr) *sum_report = sum_res.report;

  // The §4 package's second database: the servers answer the same selection
  // over x''_i = x_i^2 with an independent query curve.
  std::vector<std::uint64_t> squares(database.size());
  for (std::size_t i = 0; i < database.size(); ++i) {
    squares[i] = mul_mod(database[i] % p, database[i] % p, p);
  }
  net::RobustResult sq_res = run_one(net, squares, indices, spir_seed);
  if (squares_report != nullptr) *squares_report = sq_res.report;

  MeanVarianceResult result;
  result.sum = sum_res.value;
  result.sum_of_squares = sq_res.value;
  const double md = static_cast<double>(indices.size());
  result.mean = static_cast<double>(result.sum) / md;
  result.variance =
      static_cast<double>(result.sum_of_squares) / md - result.mean * result.mean;
  return result;
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
                                   crypto::Prg& client_prg, crypto::Prg& server_prg,
                                   const he::ClientPrecomp& precomp) const {
  SPFE_OBS_SPAN("stats.frequency");
  const std::uint64_t p = field_.modulus();
  check_stat_inputs(database, indices, n_, m_, p);
  if (keyword >= p) throw InvalidArgument("FrequencyProtocol: keyword outside field");
  const he::PaillierPublicKey& pk = client_sk.public_key();
  if ((BigInt(p) * BigInt(p) * BigInt(4)) << kStatBits >= pk.n()) {
    throw CryptoError("FrequencyProtocol: Paillier modulus too small");
  }

  // Phase 1: additive shares a_j + b_j = x_{i_j} mod p.
  const SelectedShares shares =
      run_input_selection(net, server_id, database, indices, p, method_, client_sk, server_sk,
                          pir_depth_, client_prg, server_prg, precomp);

  // Phase 2, client: E(b_j - keyword + p) (positive representative).
  {
    he::PaillierRandomnessPool* pool = pool_for(precomp, pk);
    Writer w;
    for (std::size_t j = 0; j < m_; ++j) {
      const std::uint64_t t = add_mod(shares.client_shares[j], p - keyword % p, p);
      write_ct(w, pk, pool != nullptr ? pool->encrypt(BigInt(t)) : pk.encrypt(BigInt(t), client_prg));
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
