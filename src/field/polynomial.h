// Univariate polynomials over the prime field Fp64.
//
// Two protocol jobs live here:
//   - instance hiding (§3.1): random curves through a secret point and
//     Lagrange interpolation of the servers' replies back at w = 0;
//   - m-wise independent masking (§3.3.2, §4): a random degree-(m-1)
//     polynomial P_s evaluated at database indices.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "crypto/prg.h"
#include "field/fp64.h"

namespace spfe::field {

class Polynomial {
 public:
  // Coefficients in ascending order: coeffs[i] multiplies x^i.
  Polynomial(Fp64 field, std::vector<std::uint64_t> coeffs)
      : field_(field), coeffs_(std::move(coeffs)) {}

  // Uniform polynomial of degree <= degree (exactly `degree+1` coefficients
  // drawn uniformly, so the degree may be lower with small probability —
  // this is the distribution the protocols require).
  static Polynomial random(Fp64 field, std::size_t degree, crypto::Prg& prg);

  // Uniform among polynomials of degree <= degree with P(0) = constant.
  static Polynomial random_with_constant(Fp64 field, std::size_t degree,
                                         std::uint64_t constant, crypto::Prg& prg);

  // Horner evaluation at x.
  std::uint64_t eval(std::uint64_t x) const;

 private:
  Fp64 field_;
  std::vector<std::uint64_t> coeffs_;
};

// Evaluates at `x` the unique degree-(k-1) polynomial through the k points
// (xs[i], ys[i]) (Lagrange, O(k^2) field operations). The xs must be
// pairwise distinct; throws InvalidArgument otherwise or on size mismatch.
std::uint64_t interpolate_at(const Fp64& field, const std::vector<std::uint64_t>& xs,
                             const std::vector<std::uint64_t>& ys, std::uint64_t x);

}  // namespace spfe::field
