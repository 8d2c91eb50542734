#include "bignum/multiexp.h"

#include <algorithm>
#include <memory>

#include "common/error.h"
#include "common/parallel.h"
#include "obs/obs.h"

namespace spfe::bignum {
namespace {

using u64 = std::uint64_t;
using MontVec = std::vector<u64>;  // Montgomery-form limbs, k per value

// Relative cost of a Montgomery squaring vs a full multiplication: mont_sqr
// computes each cross product once and reduces in a separate pass.
constexpr double kSqrCost = 0.7;

// w-bit digit of e at window position `window_index` (LSB digit = 0).
// Bits are gathered arithmetically from the limb array — no per-bit branch
// on the exponent value. (The zero-digit skips in the evaluation strategies
// below deliberately remain: multi-exp exponents are server-side public
// data — PIR database chunks, protocol weights. Secret exponents must go
// through MontgomeryContext::pow; see DESIGN.md "Constant-time policy".)
// SPFE_CT_BEGIN(multiexp_digit_at)
unsigned digit_at(const BigInt& /*secret*/ e, std::size_t window_index, unsigned w) {
  const std::vector<u64>& limbs = e.limbs();
  u64 d = 0;
  const std::size_t base_bit = window_index * w;
  for (unsigned b = 0; b < w; ++b) {
    const std::size_t bit_index = base_bit + b;
    const std::size_t limb = bit_index / 64;  // public window position
    const u64 v = limb < limbs.size() ? limbs[limb] : 0;  // public shape test
    d |= ((v >> (bit_index % 64)) & 1) << b;
  }
  return static_cast<unsigned>(d);
}
// SPFE_CT_END

// acc *= v in Montgomery form, where an unset acc stands for the identity
// (so leading identity factors cost nothing).
void mul_into(const MontgomeryContext& ctx, std::span<u64> acc, bool& set,
              std::span<const u64> v, std::span<u64> scratch) {
  if (set) {
    ctx.mont_mul(acc, acc, v, scratch);
  } else {
    std::copy(v.begin(), v.end(), acc.begin());
    set = true;
  }
}

// Window table for one base: entry d - 1 = base^d for d in [1, 2^w), each k
// limbs in one buffer. Even entries come from mont_sqr, odd ones from one
// mont_mul.
MontVec build_window_table(const MontgomeryContext& ctx, std::span<const u64> base, unsigned w) {
  const std::size_t k = ctx.limbs();
  const std::size_t entries = (std::size_t(1) << w) - 1;
  MontVec table(entries * k);
  std::vector<u64> scratch(ctx.scratch_limbs());
  const auto entry = [&](std::size_t d) { return std::span(table).subspan((d - 1) * k, k); };
  std::copy(base.begin(), base.end(), entry(1).begin());
  for (std::size_t d = 2; d <= entries; ++d) {
    if (d % 2 == 0) {
      ctx.mont_sqr(entry(d), entry(d / 2), scratch);
    } else {
      ctx.mont_mul(entry(d), entry(d - 1), base, scratch);
    }
  }
  return table;
}

// One column of Straus interleaving over the base range [i0, i1): a single
// squaring chain shared by the range's bases, window lookups from the
// (column-shared) per-base tables. Writes the range's product to acc and
// returns false if it is the identity (acc then holds nothing). Ranges let
// a wide-count, narrow-column fold (the depth >= 2 cPIR levels) split one
// column across several partitions; partition products combine exactly
// because modular multiplication is associative.
bool straus_column(const MontgomeryContext& ctx, const std::vector<MontVec>& tables,
                   std::span<const BigInt> bases_exps_col, std::size_t windows, unsigned w,
                   std::size_t i0, std::size_t i1, std::span<u64> acc) {
  const std::size_t k = ctx.limbs();
  std::vector<u64> scratch(ctx.scratch_limbs());
  bool set = false;
  for (std::size_t j = windows; j-- > 0;) {
    if (set) {
      for (unsigned s = 0; s < w; ++s) ctx.mont_sqr(acc, acc, scratch);
    }
    for (std::size_t i = i0; i < i1; ++i) {
      if (tables[i].empty()) continue;  // base unused (all-zero exponent row)
      const unsigned d = digit_at(bases_exps_col[i], j, w);
      if (d == 0) continue;
      mul_into(ctx, acc, set, std::span(tables[i]).subspan((d - 1) * k, k), scratch);
    }
  }
  return set;
}

// One column of Pippenger bucketing: per window, bases fall into 2^w - 1
// buckets by digit; sum_d d * bucket[d] (in the exponent) is evaluated with
// the running-product trick in at most 2 * (2^w - 1) multiplications.
// Writes and returns like straus_column.
bool pippenger_column(const MontgomeryContext& ctx, const std::vector<MontVec>& mont_bases,
                      std::span<const BigInt> bases_exps_col, std::size_t windows, unsigned w,
                      std::size_t i0, std::size_t i1, std::span<u64> acc) {
  const std::size_t k = ctx.limbs();
  const std::size_t slots = std::size_t(1) << w;
  // Buckets 1..2^w - 1 at (d - 1) * k, then running, wsum and the kernels'
  // scratch, in one buffer.
  std::vector<u64> buf((slots + 1) * k + ctx.scratch_limbs());
  const std::span<u64> all(buf);
  const auto bucket = [&](std::size_t d) { return all.subspan((d - 1) * k, k); };
  const std::span<u64> running = all.subspan((slots - 1) * k, k);
  const std::span<u64> wsum = all.subspan(slots * k, k);
  const std::span<u64> scratch = all.subspan((slots + 1) * k);
  const auto filled = std::make_unique<bool[]>(slots);
  bool set = false;
  for (std::size_t j = windows; j-- > 0;) {
    if (set) {
      for (unsigned s = 0; s < w; ++s) ctx.mont_sqr(acc, acc, scratch);
    }
    std::fill_n(filled.get(), slots, false);
    for (std::size_t i = i0; i < i1; ++i) {
      if (mont_bases[i].empty()) continue;
      const unsigned d = digit_at(bases_exps_col[i], j, w);
      if (d == 0) continue;
      mul_into(ctx, bucket(d), filled[d], mont_bases[i], scratch);
    }
    // running = prod_{e >= d} bucket[e]; multiplying it into the window sum
    // once per d yields prod_d bucket[d]^d.
    bool running_set = false, wsum_set = false;
    for (std::size_t d = slots; d-- > 1;) {
      if (filled[d]) mul_into(ctx, running, running_set, bucket(d), scratch);
      if (running_set) mul_into(ctx, wsum, wsum_set, running, scratch);
    }
    if (wsum_set) mul_into(ctx, acc, set, wsum, scratch);
  }
  return set;
}

// Partition count for the column fan-out. A depth >= 2 cPIR fold collapses
// to a handful of columns at the upper levels (e.g. 3 columns at n = 4096,
// depth 2), which used to cap the parallelism at `columns` however many
// workers the pool has. Splitting each column's base range into `parts`
// keeps every worker busy; the per-partition products recombine exactly
// (modular multiplication is associative), so the output bytes and the op
// counters are identical at every partition count.
std::size_t column_partitions(std::size_t count, std::size_t columns) {
  const std::size_t threads = common::ThreadPool::global().thread_count();
  if (columns == 0 || count == 0 || columns >= threads) return 1;
  return std::min(count, (threads + columns - 1) / columns);
}

// Folds each column's partition products (k limbs per cell; an unset cell
// is the identity) in ascending partition order.
void combine_partials(const MontgomeryContext& ctx, std::span<const u64> partials,
                      const std::vector<char>& partial_set, std::size_t columns,
                      std::size_t parts, std::vector<BigInt>& out) {
  const std::size_t k = ctx.limbs();
  common::parallel_for(columns, [&](std::size_t c) {
    std::vector<u64> buf(k + ctx.scratch_limbs());
    const std::span<u64> acc = std::span(buf).first(k);
    const std::span<u64> scratch = std::span(buf).subspan(k);
    bool set = false;
    for (std::size_t cell = c * parts; cell < (c + 1) * parts; ++cell) {
      if (partial_set[cell]) mul_into(ctx, acc, set, partials.subspan(cell * k, k), scratch);
    }
    if (set) out[c] = ctx.from_mont(acc, scratch);
  });
}

}  // namespace

namespace detail {

MultiExpPlan plan_multi_exp(std::size_t count, std::size_t columns, std::size_t max_bits) {
  const double n = static_cast<double>(count);
  const double cols = static_cast<double>(std::max<std::size_t>(columns, 1));
  const double bits = static_cast<double>(std::max<std::size_t>(max_bits, 1));
  MultiExpPlan best{MultiExpKind::kStraus, 1};
  double best_cost = -1;
  for (unsigned w = 1; w <= 10; ++w) {
    const double table = static_cast<double>((std::size_t(1) << w) - 2);
    const double buckets = static_cast<double>(2 * ((std::size_t(1) << w) - 1));
    const double windows = (bits + w - 1) / w;
    const double chain = kSqrCost * bits;  // shared squaring chain per column
    // Straus: per-base tables built once, shared by every column.
    const double straus = n * table + cols * (chain + n * windows);
    // Pippenger: no tables, but the bucket combine is paid per window.
    const double pip = cols * (chain + windows * (n + buckets));
    struct {
      MultiExpKind kind;
      double cost;
    } cand[2] = {{MultiExpKind::kStraus, straus}, {MultiExpKind::kPippenger, pip}};
    for (const auto& c : cand) {
      if (best_cost < 0 || c.cost < best_cost) {
        best_cost = c.cost;
        best = {c.kind, w};
      }
    }
  }
  return best;
}

}  // namespace detail

std::vector<BigInt> multi_pow_matrix(const MontgomeryContext& ctx, std::span<const BigInt> bases,
                                     const std::vector<std::vector<BigInt>>& exps) {
  const std::size_t count = bases.size();
  if (exps.size() != count) throw InvalidArgument("multi_pow_matrix: row count mismatch");
  const std::size_t columns = count == 0 ? 0 : exps[0].size();
  std::size_t max_bits = 0;
  std::vector<char> used(count, 0);
  for (std::size_t i = 0; i < count; ++i) {
    if (exps[i].size() != columns) throw InvalidArgument("multi_pow_matrix: ragged exponent rows");
    for (const BigInt& e : exps[i]) {
      if (e.is_negative()) throw InvalidArgument("multi_pow_matrix: negative exponent");
      const std::size_t b = e.bit_length();
      if (b > 0) used[i] = 1;
      max_bits = std::max(max_bits, b);
    }
  }
  std::vector<BigInt> out(columns, BigInt(1).mod_floor(ctx.modulus()));
  if (count == 0 || columns == 0 || max_bits == 0) return out;

  const detail::MultiExpPlan plan = detail::plan_multi_exp(count, columns, max_bits);
  obs::count(plan.kind == detail::MultiExpKind::kStraus ? obs::Op::kMultiexpStraus
                                                         : obs::Op::kMultiexpPippenger);
  const unsigned w = plan.window;
  const std::size_t windows = (max_bits + w - 1) / w;
  const std::size_t parts = column_partitions(count, columns);
  const std::size_t k = ctx.limbs();
  std::vector<u64> partials(columns * parts * k);
  std::vector<char> partial_set(columns * parts, 0);
  const auto cell_range = [&](std::size_t cell, std::size_t& c, std::size_t& i0,
                              std::size_t& i1) {
    c = cell / parts;
    const std::size_t p = cell % parts;
    i0 = p * count / parts;
    i1 = (p + 1) * count / parts;
  };
  const auto cell_acc = [&](std::size_t cell) {
    return std::span(partials).subspan(cell * k, k);
  };

  std::vector<MontVec> mont_bases(count);
  common::parallel_for(count, [&](std::size_t i) {
    if (used[i]) mont_bases[i] = ctx.to_mont(bases[i]);
  });

  if (plan.kind == detail::MultiExpKind::kStraus) {
    std::vector<MontVec> tables(count);
    common::parallel_for(count, [&](std::size_t i) {
      if (used[i]) tables[i] = build_window_table(ctx, mont_bases[i], w);
    });
    common::parallel_for(columns * parts, [&](std::size_t cell) {
      std::size_t c, i0, i1;
      cell_range(cell, c, i0, i1);
      std::vector<BigInt> col(count);
      for (std::size_t i = i0; i < i1; ++i) col[i] = exps[i][c];
      partial_set[cell] = straus_column(ctx, tables, col, windows, w, i0, i1, cell_acc(cell));
    });
    combine_partials(ctx, partials, partial_set, columns, parts, out);
    return out;
  }

  common::parallel_for(columns * parts, [&](std::size_t cell) {
    std::size_t c, i0, i1;
    cell_range(cell, c, i0, i1);
    std::vector<BigInt> col(count);
    for (std::size_t i = i0; i < i1; ++i) col[i] = exps[i][c];
    partial_set[cell] = pippenger_column(ctx, mont_bases, col, windows, w, i0, i1, cell_acc(cell));
  });
  combine_partials(ctx, partials, partial_set, columns, parts, out);
  return out;
}

BigInt multi_pow(const MontgomeryContext& ctx, std::span<const BigInt> bases,
                 std::span<const BigInt> exps) {
  if (bases.size() != exps.size()) throw InvalidArgument("multi_pow: size mismatch");
  if (bases.empty()) return BigInt(1).mod_floor(ctx.modulus());
  std::vector<std::vector<BigInt>> m(bases.size());
  for (std::size_t i = 0; i < bases.size(); ++i) m[i] = {exps[i]};
  return multi_pow_matrix(ctx, bases, m)[0];
}

}  // namespace spfe::bignum
