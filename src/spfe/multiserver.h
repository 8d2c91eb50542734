// §3.1 — one-round multi-server SPFE from multivariate polynomial
// evaluation (instance hiding, Lemma 1 / Theorem 2).
//
// The function is a Boolean formula phi over the m selected data items.
// Encoding: each selected index contributes l = ceil(log2 n) field-element
// coordinates (its bits); the polynomial P is phi's arithmetization with
// leaf j replaced by the selection polynomial P0 applied to coordinate
// block j, so deg(P) <= l * s for formula size s (leaf count).
//
// Protocol (client + k servers, privacy threshold t, k > deg(P) * t):
//   - client draws a uniform degree-t curve gamma with gamma(0) = encoded
//     indices and sends gamma(alpha_h) to server h (alpha_h = h);
//   - server h evaluates P at its point gate-by-gate (never expanding the
//     exponential monomial form) and replies with one field element, plus
//     the shared-randomness SPIR mask R(alpha_h) (R(0) = 0) for symmetric
//     privacy;
//   - the client interpolates the degree-(deg(P)*t) polynomial P(gamma(w))
//     at w = 0.
// Client privacy is information-theoretic against any t (possibly
// malicious) servers; database secrecy holds against a semi-honest client.
//
// MultiServerSumSpfe specializes to f = sum (the paper's s = 1 case):
// deg(P) = l, so k = t*l + 1 servers suffice and the data may be arbitrary
// field elements rather than bits.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "circuits/formula.h"
#include "common/bytes.h"
#include "crypto/prg.h"
#include "field/fp64.h"
#include "net/network.h"
#include "net/robust.h"

namespace spfe::protocols {

class MultiServerFormulaSpfe {
 public:
  // Database entries must be bits (0/1 as field elements).
  MultiServerFormulaSpfe(field::Fp64 field, circuits::Formula formula, std::size_t n,
                         std::size_t num_servers, std::size_t threshold);

  static std::size_t min_servers(const circuits::Formula& formula, std::size_t n,
                                 std::size_t threshold);

  std::size_t num_servers() const { return k_; }
  std::size_t index_bits() const { return l_; }
  std::size_t polynomial_degree() const { return degree_; }
  const circuits::Formula& formula() const { return formula_; }

  struct ClientState {
    std::vector<std::uint64_t> abscissae;
  };

  // Client: one message (m*l field elements) per server.
  std::vector<Bytes> make_queries(const std::vector<std::size_t>& indices, ClientState& state,
                                  crypto::Prg& prg) const;

  // Server: one field element. With `spir_seed`, adds the shared mask
  // (symmetric privacy — the client learns only f, not P's other values).
  Bytes answer(std::size_t server_id, std::span<const std::uint64_t> database, BytesView query,
               const crypto::Prg::Seed* spir_seed) const;

  // Client: interpolated f value (0 or 1 for a Boolean formula).
  std::uint64_t decode(const std::vector<Bytes>& answers, const ClientState& state) const;

  // Fault-tolerant decode (the §3.1 remark): recovers f even if up to
  // `max_errors` servers answered incorrectly, provided the instance was
  // provisioned with k >= deg(P)*t + 1 + 2*max_errors servers. Throws
  // ProtocolError when more answers are corrupt than the budget allows.
  std::uint64_t decode_with_errors(const std::vector<Bytes>& answers, const ClientState& state,
                                   std::size_t max_errors) const;

  // Full exchange over a k-server network (client drives all roles).
  std::uint64_t run(net::StarNetwork& net, std::span<const std::uint64_t> database,
                    const std::vector<std::size_t>& indices,
                    const std::optional<crypto::Prg::Seed>& spir_seed, crypto::Prg& prg) const;

  // Fault-tolerant exchange: with k >= deg(P)*t + 1 + 2e + c servers the
  // client survives any mix of <= e Byzantine and <= c crashed servers,
  // retrying with fresh randomness before throwing net::RobustProtocolError
  // (see net/robust.h).
  net::RobustResult run_robust(net::SimStarNetwork& net, std::span<const std::uint64_t> database,
                               const std::vector<std::size_t>& indices,
                               const std::optional<crypto::Prg::Seed>& spir_seed,
                               crypto::Prg& prg, const net::RobustConfig& cfg = {}) const;

 private:
  std::vector<std::uint64_t> encode_indices(const std::vector<std::size_t>& indices) const;

  field::Fp64 field_;
  circuits::Formula formula_;
  std::size_t n_;
  std::size_t m_;  // formula arity
  std::size_t k_;
  std::size_t t_;
  std::size_t l_;
  std::size_t degree_;
};

class MultiServerSumSpfe {
 public:
  // f = sum of the m selected items over the field. Data: any field values.
  MultiServerSumSpfe(field::Fp64 field, std::size_t n, std::size_t m, std::size_t num_servers,
                     std::size_t threshold);

  static std::size_t min_servers(std::size_t n, std::size_t threshold);

  std::size_t num_servers() const { return k_; }

  struct ClientState {
    std::vector<std::uint64_t> abscissae;
  };

  std::vector<Bytes> make_queries(const std::vector<std::size_t>& indices, ClientState& state,
                                  crypto::Prg& prg) const;
  Bytes answer(std::size_t server_id, std::span<const std::uint64_t> database, BytesView query,
               const crypto::Prg::Seed* spir_seed) const;
  std::uint64_t decode(const std::vector<Bytes>& answers, const ClientState& state) const;
  // See MultiServerFormulaSpfe::decode_with_errors.
  std::uint64_t decode_with_errors(const std::vector<Bytes>& answers, const ClientState& state,
                                   std::size_t max_errors) const;

  std::uint64_t run(net::StarNetwork& net, std::span<const std::uint64_t> database,
                    const std::vector<std::size_t>& indices,
                    const std::optional<crypto::Prg::Seed>& spir_seed, crypto::Prg& prg) const;

  // See MultiServerFormulaSpfe::run_robust.
  net::RobustResult run_robust(net::SimStarNetwork& net, std::span<const std::uint64_t> database,
                               const std::vector<std::size_t>& indices,
                               const std::optional<crypto::Prg::Seed>& spir_seed,
                               crypto::Prg& prg, const net::RobustConfig& cfg = {}) const;

 private:
  field::Fp64 field_;
  std::size_t n_;
  std::size_t m_;
  std::size_t k_;
  std::size_t t_;
  std::size_t l_;
};

}  // namespace spfe::protocols
