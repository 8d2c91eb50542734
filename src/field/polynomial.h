// Univariate polynomials over any FieldLike field.
//
// Two protocol jobs live here:
//   - instance hiding (§3.1): random curves through a secret point and
//     Lagrange interpolation of the servers' replies back at w = 0;
//   - m-wise independent masking (§3.3.2, §4): a random degree-(m-1)
//     polynomial P_s evaluated at database indices.
#pragma once

#include <cstddef>
#include <vector>

#include "common/error.h"
#include "field/field.h"

namespace spfe::field {

template <FieldLike F>
class Polynomial {
 public:
  using value_type = typename F::value_type;

  // Zero polynomial.
  explicit Polynomial(F field) : field_(std::move(field)) {}
  // Coefficients in ascending order: coeffs[i] multiplies x^i.
  Polynomial(F field, std::vector<value_type> coeffs)
      : field_(std::move(field)), coeffs_(std::move(coeffs)) {
    trim();
  }

  // Uniform polynomial of degree <= degree (exactly `degree+1` coefficients
  // drawn uniformly, so the degree may be lower with small probability —
  // this is the distribution the protocols require).
  static Polynomial random(F field, std::size_t degree, crypto::Prg& prg) {
    std::vector<value_type> c(degree + 1);
    for (auto& v : c) v = field.random(prg);
    return Polynomial(std::move(field), std::move(c));
  }

  // Uniform among polynomials of degree <= degree with P(0) = constant.
  static Polynomial random_with_constant(F field, std::size_t degree, value_type constant,
                                         crypto::Prg& prg) {
    std::vector<value_type> c(degree + 1);
    c[0] = std::move(constant);
    for (std::size_t i = 1; i < c.size(); ++i) c[i] = field.random(prg);
    return Polynomial(std::move(field), std::move(c));
  }

  bool is_zero() const { return coeffs_.empty(); }
  // Degree of the zero polynomial is reported as 0.
  std::size_t degree() const { return coeffs_.empty() ? 0 : coeffs_.size() - 1; }

  value_type eval(const value_type& x) const {
    value_type acc = field_.zero();
    for (std::size_t i = coeffs_.size(); i-- > 0;) {
      acc = field_.add(field_.mul(acc, x), coeffs_[i]);
    }
    return acc;
  }

 private:
  void trim() {
    while (!coeffs_.empty() && field_.eq(coeffs_.back(), field_.zero())) coeffs_.pop_back();
  }

  F field_;
  std::vector<value_type> coeffs_;
};

// Evaluates at `x` the unique degree-(k-1) polynomial through the k points
// (xs[i], ys[i]) (Lagrange, O(k^2) field operations). The xs must be
// pairwise distinct; throws InvalidArgument otherwise or on size mismatch.
template <FieldLike F>
typename F::value_type interpolate_at(const F& field,
                                      const std::vector<typename F::value_type>& xs,
                                      const std::vector<typename F::value_type>& ys,
                                      const typename F::value_type& x) {
  if (xs.size() != ys.size() || xs.empty()) {
    throw InvalidArgument("interpolate_at: need equal, nonempty point vectors");
  }
  typename F::value_type acc = field.zero();
  for (std::size_t i = 0; i < xs.size(); ++i) {
    // L_i(x) = prod_{j != i} (x - xs[j]) / (xs[i] - xs[j])
    typename F::value_type num = field.one();
    typename F::value_type den = field.one();
    for (std::size_t j = 0; j < xs.size(); ++j) {
      if (j == i) continue;
      num = field.mul(num, field.sub(x, xs[j]));
      const auto diff = field.sub(xs[i], xs[j]);
      if (field.eq(diff, field.zero())) {
        throw InvalidArgument("interpolate_at: duplicate x coordinate");
      }
      den = field.mul(den, diff);
    }
    acc = field.add(acc, field.mul(ys[i], field.mul(num, field.inv(den))));
  }
  return acc;
}

}  // namespace spfe::field
