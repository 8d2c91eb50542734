// §4 — protocols tailored to private statistics.
//
// WeightedSumProtocol (the paper's "efficient solution for the weighted sum
// function", one round):
//   - server masks the database with a random degree-(m-1) polynomial P_s
//     and answers one SPIR(n, m, F) query over x'_i = x_i + P_s(i);
//   - in parallel the client sends E(c_0..c_{m-1}) under its own key, where
//     c_k = sum_j w_j i_j^k, and the server replies with
//     E(sum_k s_k c_k) = E(sum_j w_j P_s(i_j)) (blinded into the positive
//     range);
//   - the client outputs sum_j w_j x'_{i_j} - sum_j w_j P_s(i_j).
//   By the paper's counting argument, even a malicious client learns only
//   *some* linear combination of m items (weak security).
//
// MeanVariancePackage: the §4 "package" — the server holds the squares
// database x''_i = x_i^2 alongside x, masks each view with an independent
// polynomial and answers the client's one SPIR query once, over items that
// carry both masked values side by side (SPIR(n, m, 2l) rather than two
// SPIR(n, m, l) answers), plus one E(sum_k s_k c_k) per view. The client
// gets sum and sum-of-squares, from which it derives mean and variance.
// Still one round.
//
// FrequencyProtocol: counts occurrences of a keyword w among the selected
// items. After any input-selection phase (shares a_j + b_j = x_{i_j} mod p),
// one extra round: the client sends E(b_j - w + p), the server returns a
// random permutation of E(rho_j * (x_{i_j} - w) + p * sigma_j); the client
// counts decryptions divisible by p. A malicious client can only substitute
// a different keyword per item (the paper's closing remark).
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "crypto/prg.h"
#include "field/fp64.h"
#include "he/paillier.h"
#include "net/health.h"
#include "net/network.h"
#include "net/robust.h"
#include "spfe/input_selection.h"
#include "spfe/multiserver.h"
#include "spfe/two_phase.h"

namespace spfe::protocols {

class WeightedSumProtocol {
 public:
  // Field modulus must exceed n and the maximum weighted sum; database
  // values and weights are field elements.
  WeightedSumProtocol(field::Fp64 field, std::size_t n, std::size_t m, std::size_t pir_depth);

  // One-round run; returns sum_j weights[j] * x_{indices[j]} mod p. The
  // optional `precomp` pools serve the client-side encryptions when keyed
  // for the client (see input_selection.h for the contract).
  std::uint64_t run(net::StarNetwork& net, std::size_t server_id,
                    std::span<const std::uint64_t> database,
                    const std::vector<std::size_t>& indices,
                    const std::vector<std::uint64_t>& weights,
                    const he::PaillierPrivateKey& client_sk, crypto::Prg& client_prg,
                    crypto::Prg& server_prg, const he::ClientPrecomp& precomp = {}) const;

 private:
  field::Fp64 field_;
  std::size_t n_;
  std::size_t m_;
  std::size_t pir_depth_;
};

struct MeanVarianceResult {
  std::uint64_t sum = 0;
  std::uint64_t sum_of_squares = 0;
  double mean = 0.0;
  double variance = 0.0;  // population variance of the selected items
};

class MeanVariancePackage {
 public:
  // Field must exceed n and m * max(x)^2; run() checks m * x^2 < p for
  // every entry and throws InvalidArgument before any message otherwise.
  MeanVariancePackage(field::Fp64 field, std::size_t n, std::size_t m, std::size_t pir_depth);

  MeanVarianceResult run(net::StarNetwork& net, std::size_t server_id,
                         std::span<const std::uint64_t> database,
                         const std::vector<std::size_t>& indices,
                         const he::PaillierPrivateKey& client_sk, crypto::Prg& client_prg,
                         crypto::Prg& server_prg, const he::ClientPrecomp& precomp = {}) const;

 private:
  field::Fp64 field_;
  std::size_t n_;
  std::size_t m_;
  std::size_t pir_depth_;
};

// Fault budget of a long-running statistics session. Every query runs up
// to 3 attempts of 50 ms each with net::TimingPolicy's default backoff (see
// net/robust.h for the per-query mechanics).
struct RobustStatsConfig {
  // The e used when provisioning num_servers: in-attempt decodes wait for
  // net::decode_quorum usable answers (see net::RobustConfig::byzantine_budget).
  std::size_t byzantine_budget = 0;
  // Hedge spares held back per query; 0 disables hedging. The hedge
  // deadline adapts to observed latency: max(50 us, the 0.95-quantile of
  // past answer latencies), with 2 ms standing in before any answer has
  // been observed.
  std::size_t hedge_spares = 0;
};

// Per-server culpability counters accumulated across every attempt of every
// query in a session (the session-level view of net::Blame): how often the
// server was caught lying, observed crashed, or seen straggling. Operators
// read this to decide who gets replaced vs who just has a bad link.
struct ServerBlameTally {
  std::uint64_t byzantine = 0;
  std::uint64_t crashed = 0;
  std::uint64_t straggler = 0;

  std::uint64_t total() const { return byzantine + crashed + straggler; }
};

// Session-level driver for §4 statistics workloads over a k-server
// deployment: wraps the robust multi-server sum (§3.1, f = sum) with a
// ServerHealthTracker so that a client issuing many queries against the
// same servers (1) sends to healthy servers first and demotes repeat
// offenders to hedge-spare duty, and (2) sets its hedge deadline from the
// latency the deployment actually delivers rather than a static guess.
// Every query, the mean/variance package included, is one robust run:
// the package sums the packed view y_i = x_i + x_i^2 * 2^L, whose lane
// width follows from the public p and m alone (see value_bits()).
// Everything is driven by the session seed — a session replays
// deterministically over a seeded SimStarNetwork (zero-latency links with
// `SimConfig{}`).
class RobustStatsSession {
 public:
  // `num_servers` should come from net::provisioned_servers(t*ceil(log2 n),
  // e, c, hedge_spares) for the fault budget the deployment must survive.
  RobustStatsSession(field::Fp64 field, std::size_t n, std::size_t m,
                     std::size_t num_servers, std::size_t threshold,
                     const crypto::Prg::Seed& session_seed, RobustStatsConfig config = {});

  std::size_t num_servers() const { return proto_.num_servers(); }
  // B, the largest bit count with m*(2^B - 1)^2 * 2^L + m*(2^B - 1) < p,
  // where L = bit_width(m*(2^B - 1)): mean_variance accepts values below
  // 2^B, for which the m selected x and x^2 sums share one field element
  // without wrapping. 18 for p = 2^61 - 1 and m = 8; 19 for m = 2.
  std::size_t value_bits() const { return value_bits_; }
  const net::ServerHealthTracker& health() const { return health_; }
  // Robust runs that reached the network; a call refused before its first
  // message does not count.
  std::size_t queries_issued() const { return query_no_; }

  // One tally per server, folded from every attempt (success or terminal
  // failure) the session has driven.
  const std::vector<ServerBlameTally>& blame_tally() const { return blame_; }

  // Robust sum of the selected items. Feeds the outcome (success or
  // terminal failure) into the health tracker, then returns or rethrows.
  net::RobustResult sum(net::SimStarNetwork& net, std::span<const std::uint64_t> database,
                        const std::vector<std::size_t>& indices,
                        const std::optional<crypto::Prg::Seed>& spir_seed);

  // §4 mean/variance package over the robust path, in one robust sum (one
  // query curve per server) over the packed view y_i = x_i + x_i^2 * 2^L.
  // The §3.1 exchange is linear in the database, so the client decodes
  // sum(x) + 2^L * sum(x^2) < p and splits it at bit L. Every entry must be
  // below 2^value_bits(), else InvalidArgument before any message is sent.
  // The run's report goes to `sum_report`; `squares_report` is reset to an
  // empty report, since there is no second run; the parameter stays
  // because perfbench's kserver workload still passes it.
  MeanVarianceResult mean_variance(net::SimStarNetwork& net,
                                   std::span<const std::uint64_t> database,
                                   const std::vector<std::size_t>& indices,
                                   const std::optional<crypto::Prg::Seed>& spir_seed,
                                   net::RobustnessReport* sum_report = nullptr,
                                   net::RobustnessReport* squares_report = nullptr);

 private:
  // Per-query robust config: fresh backoff seed, health-ranked send order,
  // latency-adaptive hedge deadline.
  net::RobustConfig next_query_config();
  net::RobustResult run_one(net::SimStarNetwork& net, std::span<const std::uint64_t> database,
                            const std::vector<std::size_t>& indices,
                            const std::optional<crypto::Prg::Seed>& spir_seed);
  void tally_blame(const net::RobustnessReport& report);

  MultiServerSumSpfe proto_;
  std::size_t value_bits_;  // B
  std::size_t lane_bits_;   // L = bit_width(m*(2^B - 1))
  RobustStatsConfig config_;
  crypto::Prg prg_;
  net::ServerHealthTracker health_;
  std::vector<ServerBlameTally> blame_;
  std::size_t query_no_ = 0;
};

class FrequencyProtocol {
 public:
  // Keyword domain embedded in the prime field; `method` chooses the
  // input-selection phase.
  FrequencyProtocol(field::Fp64 field, std::size_t n, std::size_t m, SelectionMethod method,
                    std::size_t pir_depth);

  // Returns |{j : x_{indices[j]} == keyword}|.
  std::size_t run(net::StarNetwork& net, std::size_t server_id,
                  std::span<const std::uint64_t> database,
                  const std::vector<std::size_t>& indices, std::uint64_t keyword,
                  const he::PaillierPrivateKey& client_sk,
                  const he::PaillierPrivateKey& server_sk, crypto::Prg& client_prg,
                  crypto::Prg& server_prg, const he::ClientPrecomp& precomp = {}) const;

 private:
  field::Fp64 field_;
  std::size_t n_;
  std::size_t m_;
  SelectionMethod method_;
  std::size_t pir_depth_;
};

}  // namespace spfe::protocols
