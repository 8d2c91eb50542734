// Boolean formulas over binary gates — the function representation used by
// the §3.1 multi-server protocol.
//
// A formula's *size* s is its number of leaves (as in the paper), and the
// §3.1 construction turns it into a multivariate polynomial of total degree
// <= s * ceil(log2 n). Servers never expand that polynomial; they evaluate it
// gate-by-gate via `eval_arithmetized`, which maps each Boolean gate to its
// natural degree-2 polynomial:
//   AND(a,b) = a*b      OR(a,b) = a + b - a*b
//   XOR(a,b) = a + b - 2ab      NOT(a) = 1 - a
// On 0/1 inputs these agree with the Boolean semantics; on field inputs they
// define the polynomial P_g of the paper.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "field/fp64.h"

namespace spfe::circuits {

enum class FormulaOp : std::uint8_t { kLeaf, kConst, kNot, kAnd, kOr, kXor };

class Formula {
 public:
  // Leaf referencing the j-th function argument (0-based).
  static Formula leaf(std::size_t arg_index);
  static Formula constant(bool value);
  static Formula f_not(Formula a);
  static Formula f_and(Formula a, Formula b);
  static Formula f_or(Formula a, Formula b);
  static Formula f_xor(Formula a, Formula b);

  // Balanced trees over args [0, arity).
  static Formula and_tree(std::size_t arity);
  static Formula or_tree(std::size_t arity);
  static Formula parity(std::size_t arity);

  // Parses expressions like "(x0 & x1) | ~x2 ^ 1" with precedence
  // ~ > & > ^ > |. Variables are x<digits>; constants 0/1.
  static Formula parse(const std::string& expr);

  FormulaOp op() const { return op_; }
  std::size_t arg_index() const { return arg_index_; }
  bool const_value() const { return const_value_; }
  const Formula& left() const { return *left_; }
  const Formula& right() const { return *right_; }

  // Number of leaves (the paper's formula size s). Constants do not count.
  std::size_t size() const;
  // 1 + max argument index referenced; 0 for constant formulas.
  std::size_t arity() const;
  bool eval(const std::vector<bool>& args) const;

  // Degree of the §3.1 polynomial when each leaf is replaced by a selection
  // polynomial of degree `leaf_degree`. (Gate polynomials add the degrees of
  // their children; NOT and constants are degree-preserving.)
  std::size_t arith_degree(std::size_t leaf_degree) const;

  // Evaluates the gate polynomials over a field, with the leaf j replaced by
  // leaf_values[j] (a field element, typically P_0 evaluated on the client's
  // encoded index block).
  std::uint64_t eval_arithmetized(const field::Fp64& field,
                                  const std::vector<std::uint64_t>& leaf_values) const;

  std::string to_string() const;

 private:
  Formula() = default;

  FormulaOp op_ = FormulaOp::kConst;
  std::size_t arg_index_ = 0;
  bool const_value_ = false;
  std::shared_ptr<const Formula> left_;
  std::shared_ptr<const Formula> right_;
};

}  // namespace spfe::circuits
