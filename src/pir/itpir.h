// Information-theoretic multi-server PIR / SPIR and the §3.1 engine.
//
// Two schemes:
//
// 1. InstanceHiding — the paper's §3.1 one-round protocol (instance hiding,
//    Beaver–Feigenbaum [5]; Lemma 1 / Theorem 2), the one engine behind
//    multi-server PIR and multi-server SPFE. The database is the
//    multilinear selection polynomial
//        P0(y_1..y_l) = sum_i x_i * prod_k (y_k if i(k)=1 else 1-y_k),
//    of total degree l = ceil(log2 n). A query selects m indices; index j
//    is encoded as l field coordinates (its bits, most significant first),
//    and the answer polynomial P applies P0 to each coordinate block and
//    combines the m leaves either by a sum (deg P = l) or by a Boolean
//    formula's arithmetization (deg P <= l * s for formula size s; the
//    data must then be bits). With k servers and privacy threshold t,
//    k > deg(P) * t:
//      - the client draws a uniform degree-t curve gamma with gamma(0) =
//        the encoded indices and sends gamma(alpha_h) to server h
//        (alpha_h = h + 1);
//      - server h evaluates P at its point without expanding the
//        exponential monomial form: each leaf folds P0 in place, one index
//        bit per pass (P0 over 2h entries -> lo + y*(hi - lo) over h), n - 1
//        field products; the m leaves are then summed, or combined gate by
//        gate by the formula. The server replies with one field
//        element plus, for symmetric privacy (SPIR, [25]), R(alpha_h) for a
//        shared random degree-(deg(P)*t) polynomial R with R(0) = 0 drawn
//        from a common PRG seed (the paper's "common random input ...
//        regarded as an extension of the database");
//      - the client interpolates P(gamma(w)) at w = 0 (`decode`), or, in
//        `run_robust`, decodes it through crashes and up to e lies.
//    Client privacy is information-theoretic against any t (possibly
//    malicious) servers; database secrecy holds against a semi-honest
//    client. PolyItPir is the m = 1 sum (f = identity): t-private k-server
//    PIR/SPIR. spfe/multiserver.h holds the two §3.1 SPFE
//    parameterizations.
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

#include "circuits/formula.h"
#include "common/bytes.h"
#include "crypto/prg.h"
#include "field/fp64.h"
#include "net/network.h"
#include "net/robust.h"

namespace spfe::pir {

// Coordinates per selected index: l = ceil(log2 n), at least 1.
std::size_t selection_bits(std::size_t n);

class InstanceHiding {
 public:
  struct ClientState {
    std::vector<std::uint64_t> abscissae;  // alpha_h, one per server
  };

  std::size_t num_servers() const { return k_; }

  // Client: one message per server (m*l field elements — the curve point).
  std::vector<Bytes> make_queries(const std::vector<std::size_t>& indices, ClientState& state,
                                  crypto::Prg& prg) const;

  // Server `server_id` (0-based): P at the queried point, one field
  // element. With a non-null `spir_seed` (the same for every server of one
  // query) it adds the shared mask R(alpha_h).
  Bytes answer(std::size_t server_id, std::span<const std::uint64_t> database, BytesView query,
               const crypto::Prg::Seed* spir_seed) const;

  // Client: interpolates the k answers at 0.
  std::uint64_t decode(const std::vector<Bytes>& answers, const ClientState& state) const;

  // Full exchange over a k-server network (client drives all roles).
  std::uint64_t run(net::StarNetwork& net, std::span<const std::uint64_t> database,
                    const std::vector<std::size_t>& indices,
                    const std::optional<crypto::Prg::Seed>& spir_seed, crypto::Prg& prg) const;

  // Fault-tolerant exchange (the §3.1 remark): with k >= deg(P)*t + 1 +
  // 2e + c servers the client survives any mix of <= e Byzantine and <= c
  // crashed servers, retrying with fresh randomness before throwing
  // net::RobustProtocolError (see net/robust.h).
  net::RobustResult run_robust(net::SimStarNetwork& net, std::span<const std::uint64_t> database,
                               const std::vector<std::size_t>& indices,
                               const std::optional<crypto::Prg::Seed>& spir_seed,
                               crypto::Prg& prg, const net::RobustConfig& cfg = {}) const;

 protected:
  // m indices per query over an n-item database; the leaves are summed, or
  // combined by `formula` (of arity m) when one is given.
  InstanceHiding(field::Fp64 field, std::size_t n, std::size_t m, std::size_t num_servers,
                 std::size_t threshold, std::optional<circuits::Formula> formula);

 private:
  // The database rules every server enforces: n entries, and bits under a
  // formula. run and run_robust check them once before the first send, so
  // a bad database fails as the caller's error instead of as k answers
  // blamed on the servers.
  void check_database(std::span<const std::uint64_t> database) const;

  field::Fp64 field_;
  std::optional<circuits::Formula> formula_;
  std::size_t n_;
  std::size_t m_;
  std::size_t k_;
  std::size_t t_;
  std::size_t l_;
  std::size_t degree_;  // of the answer polynomial P(gamma(w)): deg(P) * t
};

class PolyItPir : public InstanceHiding {
 public:
  // Items are elements of `field`; k servers, privacy threshold t.
  // Requires k > t * ceil(log2 n) and field order > k.
  PolyItPir(field::Fp64 field, std::size_t n, std::size_t num_servers, std::size_t threshold);

  static std::size_t min_servers(std::size_t n, std::size_t threshold);

  // The engine's exchange for one index.
  std::vector<Bytes> make_queries(std::size_t index, ClientState& state, crypto::Prg& prg) const;
  std::uint64_t run(net::StarNetwork& net, std::span<const std::uint64_t> database,
                    std::size_t index, const std::optional<crypto::Prg::Seed>& spir_seed,
                    crypto::Prg& prg) const;
  net::RobustResult run_robust(net::SimStarNetwork& net, std::span<const std::uint64_t> database,
                               std::size_t index,
                               const std::optional<crypto::Prg::Seed>& spir_seed,
                               crypto::Prg& prg, const net::RobustConfig& cfg = {}) const;
};

// Evaluates the multilinear selection polynomial P0 at an arbitrary field
// point. `point` holds l < 64 field elements, most significant index bit
// first (the paper's "k-th leftmost bit"); the database holds n <= 2^l
// entries. P0 is folded in place one bit per pass in `scratch`, which may
// be reused across calls. With N = 2^ceil(log2 n) (N = n for n a power of
// two) the fold takes N - 1 field multiplications and N/2 scratch entries.
// Throws InvalidArgument on l >= 64, n > 2^l or a coordinate >= p.
std::uint64_t eval_selection_polynomial(field::Fp64 f, std::span<const std::uint64_t> database,
                                        std::span<const std::uint64_t> point,
                                        std::vector<std::uint64_t>& scratch);

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
