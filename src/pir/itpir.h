// Information-theoretic multi-server PIR / SPIR.
//
// Two schemes:
//
// 1. PolyItPir — t-private k-server PIR by instance hiding (Beaver–
//    Feigenbaum [5], the same machinery as §3.1 with f = identity). The
//    database is the multilinear selection polynomial
//        P0(y_1..y_l) = sum_i x_i * prod_k (y_k if i(k)=1 else 1-y_k),
//    of total degree l = ceil(log2 n). The client sends each server one
//    point of a random degree-t curve through the encoded index and
//    interpolates the answers; k must exceed l*t. For *symmetric* privacy
//    (SPIR, [25]) the servers add a shared random degree-(l*t) polynomial R
//    with R(0) = 0, so the client learns only the selected item. The shared
//    randomness comes from a common PRG seed (the paper's "common random
//    input ... regarded as an extension of the database").
//
// 2. TwoServerXorPir — the classic sqrt(n) 2-server scheme: the database is
//    arranged as a matrix; the client sends one server a uniform row subset
//    S and the other S xor {row(i)}; each returns the XOR of its rows. One
//    server's view is a uniform subset — perfect 1-privacy. Bench ablation
//    against the polynomial scheme.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "common/bytes.h"
#include "crypto/prg.h"
#include "field/fp64.h"
#include "net/network.h"
#include "net/robust.h"

namespace spfe::pir {

class PolyItPir {
 public:
  // Items are elements of `field`; k servers, privacy threshold t.
  // Requires k > t * ceil(log2 n) and field order > k.
  PolyItPir(field::Fp64 field, std::size_t n, std::size_t num_servers, std::size_t threshold);

  static std::size_t min_servers(std::size_t n, std::size_t threshold);

  std::size_t n() const { return n_; }
  std::size_t num_servers() const { return k_; }
  std::size_t threshold() const { return t_; }
  std::size_t index_bits() const { return l_; }
  const field::Fp64& field() const { return field_; }

  struct ClientState {
    std::vector<std::uint64_t> query_points;  // abscissa per server (1..k)
  };

  // Client: one message per server (l field elements — the curve point).
  std::vector<Bytes> make_queries(std::size_t index, ClientState& state,
                                  crypto::Prg& prg) const;

  // Server `server_id` (0-based): evaluates P0 at the queried point.
  // If `spir_seed` is non-null, adds the shared masking polynomial R(alpha_h)
  // (symmetric privacy); all servers must use the same seed per query.
  Bytes answer(std::size_t server_id, std::span<const std::uint64_t> database,
               BytesView query, const crypto::Prg::Seed* spir_seed) const;

  // Client: interpolates the k answers at 0.
  std::uint64_t decode(const std::vector<Bytes>& answers, const ClientState& state) const;

  // Fault-tolerant decode: recovers the item even if up to `max_errors`
  // answers are wrong, provided k >= l*t + 1 + 2*max_errors. Throws
  // ProtocolError when the answers are beyond that budget.
  std::uint64_t decode_with_errors(const std::vector<Bytes>& answers, const ClientState& state,
                                   std::size_t max_errors) const;

  // Full exchange over a k-server network (client drives all roles).
  std::uint64_t run(net::StarNetwork& net, std::span<const std::uint64_t> database,
                    std::size_t index, const std::optional<crypto::Prg::Seed>& spir_seed,
                    crypto::Prg& prg) const;

  // Fault-tolerant exchange over a virtual-time network: tolerates
  // crashed/Byzantine servers up to the provisioned redundancy (see
  // net/robust.h), retrying with fresh randomness before throwing
  // net::RobustProtocolError.
  net::RobustResult run_robust(net::SimStarNetwork& net, std::span<const std::uint64_t> database,
                               std::size_t index,
                               const std::optional<crypto::Prg::Seed>& spir_seed,
                               crypto::Prg& prg, const net::RobustConfig& cfg = {}) const;

  // Upstream bytes per server for one query (for analytic cross-checks).
  std::size_t query_bytes() const { return l_ * 8; }

 private:
  field::Fp64 field_;
  std::size_t n_;
  std::size_t k_;
  std::size_t t_;
  std::size_t l_;  // index bits
};

// Evaluates the multilinear selection polynomial P0 at an arbitrary field
// point (shared with the §3.1 SPFE engine). `point` holds l field elements,
// most significant index bit first (the paper's "k-th leftmost bit").
std::uint64_t eval_selection_polynomial(const field::Fp64& f,
                                        std::span<const std::uint64_t> database,
                                        std::span<const std::uint64_t> point);

class TwoServerXorPir {
 public:
  // Byte-string items of fixed length `item_bytes`; n items.
  TwoServerXorPir(std::size_t n, std::size_t item_bytes);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }

  struct ClientState {
    std::size_t row = 0;
    std::size_t col = 0;
  };

  // Returns the two query messages (row-subset bitmaps).
  std::pair<Bytes, Bytes> make_queries(std::size_t index, ClientState& state,
                                       crypto::Prg& prg) const;

  // XOR of the selected rows (cols * item_bytes bytes).
  Bytes answer(std::span<const Bytes> database, BytesView query) const;

  Bytes decode(const Bytes& answer0, const Bytes& answer1, const ClientState& state) const;

 private:
  std::size_t n_;
  std::size_t item_bytes_;
  std::size_t rows_;
  std::size_t cols_;
};

}  // namespace spfe::pir
