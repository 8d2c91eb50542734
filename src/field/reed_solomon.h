// Reed–Solomon decoding (Berlekamp–Welch) over the prime field Fp64.
//
// Implements the §3.1 fault-tolerance remark: "t' malicious servers can be
// tolerated by adding 2t' additional servers". The servers' answers lie on a
// degree-d polynomial; with k >= d + 1 + 2e points of which at most e are
// corrupted, `berlekamp_welch_decode` recovers the polynomial.
//
// The robust protocol clients additionally face *erasures* — servers that
// crashed or whose answers failed to parse. An erasure costs one point, a
// silent error costs two: from s surviving points a degree-d polynomial is
// decodable as long as 2*errors <= s - d - 1 (`decode_with_erasures`).
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "field/fp64.h"

namespace spfe::field {

// Solves a linear system A z = b over the field by Gaussian elimination.
// Returns std::nullopt if the system is inconsistent; free variables are
// fixed to zero (any solution works for Berlekamp–Welch).
std::optional<std::vector<std::uint64_t>> solve_linear_system(
    const Fp64& field, std::vector<std::vector<std::uint64_t>> a, std::vector<std::uint64_t> b);

// A successful decoding: `support_xs`/`support_ys` are d+1 points of the
// recovered polynomial (evaluate it anywhere via `eval`), and `agrees[i]`
// says whether input point i lies on it — a false entry is a corrected
// error. The robust clients use `agrees` to attribute blame per server.
struct RsDecoding {
  std::vector<std::uint64_t> support_xs;
  std::vector<std::uint64_t> support_ys;
  std::vector<bool> agrees;

  std::uint64_t eval(const Fp64& field, std::uint64_t at) const;

  std::size_t num_errors() const {
    std::size_t n = 0;
    for (bool ok : agrees) {
      if (!ok) ++n;
    }
    return n;
  }

  // Indices (into the decoder's input point list) whose y did not lie on
  // the decoded polynomial — the per-point Byzantine blame a robust caller
  // maps back to server identities (net/robust.h).
  std::vector<std::size_t> error_positions() const {
    std::vector<std::size_t> out;
    for (std::size_t i = 0; i < agrees.size(); ++i) {
      if (!agrees[i]) out.push_back(i);
    }
    return out;
  }
};

// Decodes (xs[i], ys[i]) as a degree <= d polynomial with at most
// `max_errors` corrupted points. Requires xs.size() >= d + 1 + 2*max_errors
// and distinct xs. Returns nullopt when the points are not within
// `max_errors` of any degree-d polynomial.
std::optional<RsDecoding> berlekamp_welch_decode(const Fp64& field,
                                                 const std::vector<std::uint64_t>& xs,
                                                 const std::vector<std::uint64_t>& ys,
                                                 std::size_t d, std::size_t max_errors);

// Decodes surviving points (erasures already removed) as a degree <= d
// polynomial, spending the leftover redundancy on silent errors: from s
// points, up to floor((s - d - 1) / 2) corruptions are correctable. Returns
// nullopt if s < d + 1 or the points are beyond that budget.
std::optional<RsDecoding> decode_with_erasures(const Fp64& field,
                                               const std::vector<std::uint64_t>& xs,
                                               const std::vector<std::uint64_t>& ys,
                                               std::size_t d);

}  // namespace spfe::field
