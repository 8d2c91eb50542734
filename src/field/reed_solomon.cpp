#include "field/reed_solomon.h"

#include <utility>

#include "common/error.h"
#include "field/polynomial.h"
#include "obs/obs.h"

namespace spfe::field {

std::optional<std::vector<std::uint64_t>> solve_linear_system(
    const Fp64& field, std::vector<std::vector<std::uint64_t>> a, std::vector<std::uint64_t> b) {
  const std::size_t rows = a.size();
  if (rows == 0 || b.size() != rows) throw InvalidArgument("solve_linear_system: bad shape");
  const std::size_t cols = a[0].size();
  std::vector<std::size_t> pivot_col;
  std::size_t r = 0;
  for (std::size_t c = 0; c < cols && r < rows; ++c) {
    // Find pivot.
    std::size_t pivot = r;
    while (pivot < rows && field.eq(a[pivot][c], field.zero())) ++pivot;
    if (pivot == rows) continue;
    std::swap(a[pivot], a[r]);
    std::swap(b[pivot], b[r]);
    const std::uint64_t inv = field.inv(a[r][c]);
    for (std::size_t j = c; j < cols; ++j) a[r][j] = field.mul(a[r][j], inv);
    b[r] = field.mul(b[r], inv);
    for (std::size_t i = 0; i < rows; ++i) {
      if (i == r || field.eq(a[i][c], field.zero())) continue;
      const std::uint64_t factor = a[i][c];
      for (std::size_t j = c; j < cols; ++j) {
        a[i][j] = field.sub(a[i][j], field.mul(factor, a[r][j]));
      }
      b[i] = field.sub(b[i], field.mul(factor, b[r]));
    }
    pivot_col.push_back(c);
    ++r;
  }
  // Inconsistency check: zero row with nonzero rhs.
  for (std::size_t i = r; i < rows; ++i) {
    if (!field.eq(b[i], field.zero())) return std::nullopt;
  }
  std::vector<std::uint64_t> z(cols, field.zero());
  for (std::size_t i = 0; i < pivot_col.size(); ++i) z[pivot_col[i]] = b[i];
  return z;
}

std::uint64_t RsDecoding::eval(const Fp64& field, std::uint64_t at) const {
  return interpolate_at(field, support_xs, support_ys, at);
}

std::optional<RsDecoding> berlekamp_welch_decode(const Fp64& field,
                                                 const std::vector<std::uint64_t>& xs,
                                                 const std::vector<std::uint64_t>& ys,
                                                 std::size_t d, std::size_t max_errors) {
  const std::size_t k = xs.size();
  obs::count(obs::Op::kBwDecode);
  if (ys.size() != k) throw InvalidArgument("berlekamp_welch: point size mismatch");
  if (k < d + 1 + 2 * max_errors) {
    throw InvalidArgument("berlekamp_welch: not enough points for the error budget");
  }

  std::vector<std::uint64_t> good_xs, good_ys;
  if (max_errors == 0) {
    // No error budget: every point must already lie on one polynomial.
    good_xs.assign(xs.begin(), xs.end());
    good_ys.assign(ys.begin(), ys.end());
  } else {
    // Find N (deg <= d + e) and monic E (deg = e) with N(x_i) = y_i * E(x_i).
    // Unknowns: N's d+e+1 coefficients, E's e lower coefficients (leading = 1).
    const std::size_t e = max_errors;
    const std::size_t n_coeffs = d + e + 1;
    const std::size_t cols = n_coeffs + e;
    std::vector<std::vector<std::uint64_t>> a(k, std::vector<std::uint64_t>(cols, field.zero()));
    std::vector<std::uint64_t> b(k, field.zero());
    for (std::size_t i = 0; i < k; ++i) {
      // N coefficients: + x^j
      std::uint64_t pw = field.one();
      for (std::size_t j = 0; j < n_coeffs; ++j) {
        a[i][j] = pw;
        pw = field.mul(pw, xs[i]);
      }
      // E lower coefficients: - y_i * x^j
      pw = field.one();
      for (std::size_t j = 0; j < e; ++j) {
        a[i][n_coeffs + j] = field.neg(field.mul(ys[i], pw));
        pw = field.mul(pw, xs[i]);
      }
      // rhs: y_i * x^e  (from the monic leading term of E)
      std::uint64_t xe = field.one();
      for (std::size_t j = 0; j < e; ++j) xe = field.mul(xe, xs[i]);
      b[i] = field.mul(ys[i], xe);
    }
    const auto sol = solve_linear_system(field, std::move(a), std::move(b));
    if (!sol.has_value()) return std::nullopt;

    std::vector<std::uint64_t> n_coeff(sol->begin(),
                                       sol->begin() + static_cast<std::ptrdiff_t>(n_coeffs));
    std::vector<std::uint64_t> e_coeff(sol->begin() + static_cast<std::ptrdiff_t>(n_coeffs),
                                       sol->end());
    e_coeff.push_back(field.one());  // monic leading term
    const Polynomial numerator(field, std::move(n_coeff));
    const Polynomial error_locator(field, std::move(e_coeff));

    // Candidate non-error points: E(x_i) != 0 and N(x_i) = y_i E(x_i).
    for (std::size_t i = 0; i < k; ++i) {
      const std::uint64_t ev = error_locator.eval(xs[i]);
      if (!field.eq(ev, field.zero()) && field.eq(numerator.eval(xs[i]), field.mul(ys[i], ev))) {
        good_xs.push_back(xs[i]);
        good_ys.push_back(ys[i]);
      }
    }
    if (good_xs.size() < d + 1) return std::nullopt;
  }

  // Verify: interpolate Q through the first d+1 good points; all but at most
  // `max_errors` input points must agree with it.
  RsDecoding decoding;
  decoding.support_xs.assign(good_xs.begin(),
                             good_xs.begin() + static_cast<std::ptrdiff_t>(d + 1));
  decoding.support_ys.assign(good_ys.begin(),
                             good_ys.begin() + static_cast<std::ptrdiff_t>(d + 1));
  decoding.agrees.resize(k);
  std::size_t agree = 0;
  for (std::size_t i = 0; i < k; ++i) {
    const bool ok =
        field.eq(interpolate_at(field, decoding.support_xs, decoding.support_ys, xs[i]), ys[i]);
    decoding.agrees[i] = ok;
    if (ok) ++agree;
  }
  if (agree + max_errors < k) return std::nullopt;
  return decoding;
}

std::optional<RsDecoding> decode_with_erasures(const Fp64& field,
                                               const std::vector<std::uint64_t>& xs,
                                               const std::vector<std::uint64_t>& ys,
                                               std::size_t d) {
  const std::size_t s = xs.size();
  if (ys.size() != s) throw InvalidArgument("decode_with_erasures: point size mismatch");
  if (s < d + 1) return std::nullopt;
  const std::size_t e_cap = (s - d - 1) / 2;
  return berlekamp_welch_decode(field, xs, ys, d, e_cap);
}

}  // namespace spfe::field
