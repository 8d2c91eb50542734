// Simultaneous multi-exponentiation on top of MontgomeryContext — the
// batched kernel under every homomorphic hot path (the cPIR server fold,
// Paillier weighted sums in the §4 statistics protocols, and the
// arithmetic-circuit SPFE cross-term elimination).
//
// Two evaluation strategies, selected per call by a cost model (costs in
// Montgomery multiplications, squarings weighted cheaper via mont_sqr):
//   * Straus interleaving — one shared squaring chain for all bases, a
//     2^w-entry window table per base. Tables are shared across all columns
//     of a matrix call. Best for a moderate base count with large exponents:
//     every multi-exp the query benchmark's workloads run.
//   * Pippenger bucketing — no per-base tables; each window accumulates
//     bases into 2^w-1 buckets combined with the running-product trick.
//     Takes over above a base-count threshold (and for small exponents,
//     where Straus tables would dominate): the depth-1 cPIR fold of E5.
//
// Both strategies return the canonical representative in [0, modulus), so
// results are byte-identical to the naive product of mod_pow calls — the
// engine changes evaluation order only, never transcripts.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "bignum/bigint.h"
#include "bignum/modarith.h"

namespace spfe::bignum {

// prod_i bases[i]^exps[i] mod ctx.modulus(). Exponents must be >= 0; zero
// exponents contribute the identity and cost nothing. Throws InvalidArgument
// on size mismatch or a negative exponent.
BigInt multi_pow(const MontgomeryContext& ctx, std::span<const BigInt> bases,
                 std::span<const BigInt> exps);

// Column-wise multi-exp over a base-major exponent matrix:
//   out[c] = prod_i bases[i]^{exps[i][c]}  for c in [0, columns).
// All rows must have the same length. Straus window tables are built once
// and shared across columns; columns are fanned out across the global
// thread pool (outputs are per-column, so the result is bit-identical at
// every SPFE_THREADS setting).
std::vector<BigInt> multi_pow_matrix(const MontgomeryContext& ctx, std::span<const BigInt> bases,
                                     const std::vector<std::vector<BigInt>>& exps);

namespace detail {

// Strategy planning, exposed so tests (and DESIGN.md's crossover table) can
// pin which kernel a given shape selects.
enum class MultiExpKind { kStraus, kPippenger };
struct MultiExpPlan {
  MultiExpKind kind;
  unsigned window;  // w in [1, 10]
};
// `count` bases, `columns` independent exponent columns, exponents of at
// most `max_bits` bits.
MultiExpPlan plan_multi_exp(std::size_t count, std::size_t columns, std::size_t max_bits);

}  // namespace detail

}  // namespace spfe::bignum
