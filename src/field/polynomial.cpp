#include "field/polynomial.h"

#include "common/error.h"

namespace spfe::field {

Polynomial Polynomial::random(Fp64 field, std::size_t degree, crypto::Prg& prg) {
  std::vector<std::uint64_t> c(degree + 1);
  for (auto& v : c) v = field.random(prg);
  return Polynomial(field, std::move(c));
}

Polynomial Polynomial::random_with_constant(Fp64 field, std::size_t degree,
                                            std::uint64_t constant, crypto::Prg& prg) {
  std::vector<std::uint64_t> c(degree + 1);
  c[0] = constant;
  for (std::size_t i = 1; i < c.size(); ++i) c[i] = field.random(prg);
  return Polynomial(field, std::move(c));
}

std::uint64_t Polynomial::eval(std::uint64_t x) const {
  std::uint64_t acc = field_.zero();
  for (std::size_t i = coeffs_.size(); i-- > 0;) {
    acc = field_.add(field_.mul(acc, x), coeffs_[i]);
  }
  return acc;
}

std::uint64_t interpolate_at(const Fp64& field, const std::vector<std::uint64_t>& xs,
                             const std::vector<std::uint64_t>& ys, std::uint64_t x) {
  if (xs.size() != ys.size() || xs.empty()) {
    throw InvalidArgument("interpolate_at: need equal, nonempty point vectors");
  }
  std::uint64_t acc = field.zero();
  for (std::size_t i = 0; i < xs.size(); ++i) {
    // L_i(x) = prod_{j != i} (x - xs[j]) / (xs[i] - xs[j])
    std::uint64_t num = field.one();
    std::uint64_t den = field.one();
    for (std::size_t j = 0; j < xs.size(); ++j) {
      if (j == i) continue;
      num = field.mul(num, field.sub(x, xs[j]));
      const std::uint64_t diff = field.sub(xs[i], xs[j]);
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
