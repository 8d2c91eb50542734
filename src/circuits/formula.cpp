#include "circuits/formula.h"

#include <algorithm>

#include "common/error.h"

namespace spfe::circuits {

Formula Formula::leaf(std::size_t arg_index) {
  Formula f;
  f.op_ = FormulaOp::kLeaf;
  f.arg_index_ = arg_index;
  return f;
}

Formula Formula::constant(bool value) {
  Formula f;
  f.op_ = FormulaOp::kConst;
  f.const_value_ = value;
  return f;
}

Formula Formula::f_not(Formula a) {
  Formula f;
  f.op_ = FormulaOp::kNot;
  f.left_ = std::make_shared<const Formula>(std::move(a));
  return f;
}

Formula Formula::f_and(Formula a, Formula b) {
  Formula f;
  f.op_ = FormulaOp::kAnd;
  f.left_ = std::make_shared<const Formula>(std::move(a));
  f.right_ = std::make_shared<const Formula>(std::move(b));
  return f;
}

Formula Formula::f_or(Formula a, Formula b) {
  Formula f;
  f.op_ = FormulaOp::kOr;
  f.left_ = std::make_shared<const Formula>(std::move(a));
  f.right_ = std::make_shared<const Formula>(std::move(b));
  return f;
}

Formula Formula::f_xor(Formula a, Formula b) {
  Formula f;
  f.op_ = FormulaOp::kXor;
  f.left_ = std::make_shared<const Formula>(std::move(a));
  f.right_ = std::make_shared<const Formula>(std::move(b));
  return f;
}

namespace {

Formula balanced_tree(FormulaOp op, std::size_t lo, std::size_t hi) {
  if (hi - lo == 1) return Formula::leaf(lo);
  const std::size_t mid = lo + (hi - lo) / 2;
  Formula l = balanced_tree(op, lo, mid);
  Formula r = balanced_tree(op, mid, hi);
  switch (op) {
    case FormulaOp::kAnd:
      return Formula::f_and(std::move(l), std::move(r));
    case FormulaOp::kOr:
      return Formula::f_or(std::move(l), std::move(r));
    case FormulaOp::kXor:
      return Formula::f_xor(std::move(l), std::move(r));
    default:
      throw InvalidArgument("balanced_tree: not a binary op");
  }
}

}  // namespace

Formula Formula::and_tree(std::size_t arity) {
  if (arity == 0) throw InvalidArgument("and_tree: arity must be positive");
  return balanced_tree(FormulaOp::kAnd, 0, arity);
}

Formula Formula::or_tree(std::size_t arity) {
  if (arity == 0) throw InvalidArgument("or_tree: arity must be positive");
  return balanced_tree(FormulaOp::kOr, 0, arity);
}

Formula Formula::parity(std::size_t arity) {
  if (arity == 0) throw InvalidArgument("parity: arity must be positive");
  return balanced_tree(FormulaOp::kXor, 0, arity);
}

std::size_t Formula::size() const {
  switch (op_) {
    case FormulaOp::kLeaf:
      return 1;
    case FormulaOp::kConst:
      return 0;
    case FormulaOp::kNot:
      return left_->size();
    default:
      return left_->size() + right_->size();
  }
}

std::size_t Formula::arity() const {
  switch (op_) {
    case FormulaOp::kLeaf:
      return arg_index_ + 1;
    case FormulaOp::kConst:
      return 0;
    case FormulaOp::kNot:
      return left_->arity();
    default:
      return std::max(left_->arity(), right_->arity());
  }
}

bool Formula::eval(const std::vector<bool>& args) const {
  switch (op_) {
    case FormulaOp::kLeaf:
      if (arg_index_ >= args.size()) throw InvalidArgument("Formula::eval: missing argument");
      return args[arg_index_];
    case FormulaOp::kConst:
      return const_value_;
    case FormulaOp::kNot:
      return !left_->eval(args);
    case FormulaOp::kAnd:
      return left_->eval(args) && right_->eval(args);
    case FormulaOp::kOr:
      return left_->eval(args) || right_->eval(args);
    case FormulaOp::kXor:
      return left_->eval(args) != right_->eval(args);
  }
  throw InvalidArgument("Formula::eval: corrupt op");
}

std::size_t Formula::arith_degree(std::size_t leaf_degree) const {
  switch (op_) {
    case FormulaOp::kLeaf:
      return leaf_degree;
    case FormulaOp::kConst:
      return 0;
    case FormulaOp::kNot:
      return left_->arith_degree(leaf_degree);
    default:
      return left_->arith_degree(leaf_degree) + right_->arith_degree(leaf_degree);
  }
}

std::uint64_t Formula::eval_arithmetized(const field::Fp64& field,
                                         const std::vector<std::uint64_t>& leaf_values) const {
  switch (op_) {
    case FormulaOp::kLeaf:
      if (arg_index_ >= leaf_values.size()) {
        throw InvalidArgument("Formula: leaf index out of range");
      }
      return leaf_values[arg_index_];
    case FormulaOp::kConst:
      return const_value_ ? field.one() : field.zero();
    case FormulaOp::kNot:
      return field.sub(field.one(), left_->eval_arithmetized(field, leaf_values));
    case FormulaOp::kAnd: {
      const std::uint64_t a = left_->eval_arithmetized(field, leaf_values);
      const std::uint64_t b = right_->eval_arithmetized(field, leaf_values);
      return field.mul(a, b);
    }
    case FormulaOp::kOr: {
      const std::uint64_t a = left_->eval_arithmetized(field, leaf_values);
      const std::uint64_t b = right_->eval_arithmetized(field, leaf_values);
      return field.sub(field.add(a, b), field.mul(a, b));
    }
    case FormulaOp::kXor: {
      const std::uint64_t a = left_->eval_arithmetized(field, leaf_values);
      const std::uint64_t b = right_->eval_arithmetized(field, leaf_values);
      const std::uint64_t ab = field.mul(a, b);
      return field.sub(field.add(a, b), field.add(ab, ab));
    }
  }
  throw InvalidArgument("Formula: corrupt op");
}

std::string Formula::to_string() const {
  switch (op_) {
    case FormulaOp::kLeaf:
      return "x" + std::to_string(arg_index_);
    case FormulaOp::kConst:
      return const_value_ ? "1" : "0";
    case FormulaOp::kNot:
      return "~" + left_->to_string();
    case FormulaOp::kAnd:
      return "(" + left_->to_string() + " & " + right_->to_string() + ")";
    case FormulaOp::kOr:
      return "(" + left_->to_string() + " | " + right_->to_string() + ")";
    case FormulaOp::kXor:
      return "(" + left_->to_string() + " ^ " + right_->to_string() + ")";
  }
  return "?";
}

// --- Parser: precedence ~ > & > ^ > | -------------------------------------
namespace {

class Parser {
 public:
  explicit Parser(const std::string& s) : s_(s) {}

  Formula parse() {
    Formula f = parse_or();
    skip_ws();
    if (pos_ != s_.size()) throw InvalidArgument("Formula::parse: trailing characters");
    return f;
  }

 private:
  void skip_ws() {
    while (pos_ < s_.size() && (s_[pos_] == ' ' || s_[pos_] == '\t')) ++pos_;
  }

  bool consume(char c) {
    skip_ws();
    if (pos_ < s_.size() && s_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  Formula parse_or() {
    Formula f = parse_xor();
    while (consume('|')) f = Formula::f_or(std::move(f), parse_xor());
    return f;
  }

  Formula parse_xor() {
    Formula f = parse_and();
    while (consume('^')) f = Formula::f_xor(std::move(f), parse_and());
    return f;
  }

  Formula parse_and() {
    Formula f = parse_unary();
    while (consume('&')) f = Formula::f_and(std::move(f), parse_unary());
    return f;
  }

  Formula parse_unary() {
    if (consume('~')) return Formula::f_not(parse_unary());
    return parse_atom();
  }

  Formula parse_atom() {
    skip_ws();
    if (pos_ >= s_.size()) throw InvalidArgument("Formula::parse: unexpected end");
    if (consume('(')) {
      Formula f = parse_or();
      if (!consume(')')) throw InvalidArgument("Formula::parse: missing ')'");
      return f;
    }
    const char c = s_[pos_];
    if (c == '0' || c == '1') {
      ++pos_;
      return Formula::constant(c == '1');
    }
    if (c == 'x') {
      ++pos_;
      std::size_t idx = 0;
      bool any = false;
      while (pos_ < s_.size() && s_[pos_] >= '0' && s_[pos_] <= '9') {
        idx = idx * 10 + static_cast<std::size_t>(s_[pos_] - '0');
        ++pos_;
        any = true;
      }
      if (!any) throw InvalidArgument("Formula::parse: variable needs an index");
      return Formula::leaf(idx);
    }
    throw InvalidArgument("Formula::parse: unexpected character");
  }

  const std::string& s_;
  std::size_t pos_ = 0;
};

}  // namespace

Formula Formula::parse(const std::string& expr) { return Parser(expr).parse(); }

}  // namespace spfe::circuits
