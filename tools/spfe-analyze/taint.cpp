// Pass 1 — secret-taint analysis: the whole-tree interprocedural check
// and the SPFE_CT region check, both run by one local engine.
//
// Per function, the engine seeds taint from /*secret*/ marks, propagates
// it through assignments to a fixpoint (a member chain ending in a called
// structural accessor is not a tainted use), and extends that core:
//
//   * parameters that the global fixpoint marked tainted are injected as
//     extra seeds, so helpers reached from secret roots are analyzed as
//     if annotated;
//   * a call to a function whose return is tainted counts as a tainted
//     use at the call site;
//   * a call to a sanitizer (the encrypt*/rerandomize family) never
//     taints the surrounding expression — a ciphertext of a secret is
//     public under IND-CPA;
//   * container mutators (`v.push_back(secret)`) taint the receiver;
//   * a declaration `Type name(args)` with tainted args taints `name`
//     (and counts as a constructor call to `Type`);
//   * a range-for over a tainted range taints its loop variables.
//
// The global fixpoint iterates local analyses, accumulating (a) tainted
// parameter positions per callee name and (b) the set of functions whose
// return value is tainted, until neither grows. A final pass re-runs each
// local analysis and emits findings for secret-dependent constructs over
// whole function bodies (not just SPFE_CT regions):
//
//   tainted-branch       if/while/switch/for/ternary on a tainted value
//   tainted-guard        `if (tainted) throw ...` — a validation idiom
//                        that rejects bad secrets; distinct check id so
//                        baselines can accept it narrowly
//   tainted-shortcircuit &&/|| on a tainted operand
//   tainted-subscript    array index from a tainted expression
//   tainted-div          / or % with a tainted operand
//   tainted-call         tainted value reaching an unaudited external
//                        function (in-tree callees are exempt: taint
//                        follows them and their bodies are checked)
//
// The region check runs the same engine on every function that holds an
// SPFE_CT marker, in every file (the audited core included), seeded only
// from that function's own marks: no injected parameters, no tainted
// returns. It checks only the body tokens between the markers, with the
// same branch, ternary, short-circuit, subscript and division checks, and
// a stricter call rule: a tainted argument or receiver may reach only
// ct_*, structural or audited names. In-tree and core callees,
// sanitizers and mutators are not exempt there, and a sanitizer call
// does not hide the taint of its arguments. `goto` and malformed markers
// (nested, unclosed, END without BEGIN, outside a function body) are
// findings too. Every region finding has the check id `ct-region`, which
// no baseline entry may suppress.
#include <cstdio>
#include <map>
#include <set>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "analyzer.h"

namespace spfe::analyze {

namespace {

constexpr std::size_t npos = static_cast<std::size_t>(-1);

// Container mutators: storing a tainted value is not itself a leak, but
// the container becomes tainted.
const std::unordered_set<std::string>& mutator_names() {
  static const std::unordered_set<std::string> kSet = {
      "push_back", "emplace_back", "insert", "emplace", "assign", "append", "push",
  };
  return kSet;
}

// Declarations of these types with a tainted constructor argument are
// plain scalar copies, not size-dependent allocations.
const std::unordered_set<std::string>& scalar_type_names() {
  static const std::unordered_set<std::string> kSet = {
      "auto",     "bool",     "char",     "int",      "unsigned", "signed",
      "long",     "short",    "float",    "double",   "size_t",   "ptrdiff_t",
      "uint8_t",  "uint16_t", "uint32_t", "uint64_t", "int8_t",   "int16_t",
      "int32_t",  "int64_t",  "u8",       "u64",      "u128",
  };
  return kSet;
}

// Interprocedural state shared across local analyses.
struct GlobalTaint {
  // callee name -> parameter positions that receive tainted arguments
  std::map<std::string, std::set<std::size_t>> inj;
  // functions whose return value is tainted
  std::set<std::string> ret;
};

struct LocalResult {
  bool returns_tainted = false;
  std::map<std::string, std::set<std::size_t>> out;  // callee -> tainted arg positions
};

struct RawFinding {
  std::string check;
  int line;
  std::string message;
};

class TaintEngine {
 public:
  // `region` selects the SPFE_CT region check (see the file comment); its
  // callers pass no injected names and an empty GlobalTaint.
  TaintEngine(const SourceFile& sf, const FunctionInfo& fn,
              const std::set<std::string>& injected, const GlobalTaint& g,
              const std::unordered_map<std::string, std::vector<std::size_t>>& by_name,
              const std::unordered_set<std::string>& core_names, bool region)
      : t_(sf.toks), ub_(fn.begin), ue_(fn.end), body_(fn.body_open + 1), g_(g),
        by_name_(by_name), core_names_(core_names), region_(region) {
    seed();
    for (const std::string& name : injected) taint(name);
    propagate();
  }

  const std::unordered_set<std::string>& tainted() const { return tainted_; }

  LocalResult collect() const {
    LocalResult r;
    for (std::size_t i = body_; i < ue_; ++i) {
      if (is_ident(t_, i, "return")) {
        if (first_tainted(i + 1, statement_end(t_, i, ue_)) != npos) r.returns_tainted = true;
        continue;
      }
      if (!call_site(i)) continue;
      const std::string callee = call_target(i);
      if (callee.empty() || by_name_.count(callee) == 0) continue;
      // Sanitizers absorb taint: their internals are audited separately
      // (SPFE_CT regions) and their outputs are public ciphertexts.
      if (sanitizer_names().count(callee) > 0) continue;
      const std::size_t close = close_of(i);
      std::size_t pos = 0;
      for (const auto& [b, e] : split_args(t_, i + 1, close)) {
        if (first_tainted(b, e) != npos) r.out[callee].insert(pos);
        ++pos;
      }
    }
    return r;
  }

  // Whole-tree mode checks every body token. Region mode checks the body
  // tokens between the SPFE_CT markers (a region may open above the
  // signature, which is not code) and reports malformed markers.
  std::vector<RawFinding> check() const {
    std::vector<RawFinding> out;
    if (!region_) {
      if (tainted_.empty() && g_.ret.empty()) return out;
      for (std::size_t i = body_; i < ue_; ++i) check_token(i, out);
      return out;
    }
    const Token* open = nullptr;
    for (std::size_t i = ub_; i < ue_; ++i) {
      const Token& tk = t_[i];
      if (tk.kind == Token::Kind::kCtBegin) {
        if (open != nullptr) {
          out.push_back({kRegionCheck, tk.line,
                         "SPFE_CT_BEGIN(" + tk.text + ") nested inside region '" +
                             open->text + "'"});
        }
        open = &tk;
      } else if (tk.kind == Token::Kind::kCtEnd) {
        if (open == nullptr) {
          out.push_back({kRegionCheck, tk.line, "SPFE_CT_END without a matching SPFE_CT_BEGIN"});
        }
        open = nullptr;
      } else if (open != nullptr && i >= body_) {
        check_token(i, out);
      }
    }
    if (open != nullptr) {
      out.push_back({kRegionCheck, open->line,
                     "SPFE_CT_BEGIN(" + open->text + ") is never closed (missing SPFE_CT_END)"});
    }
    for (RawFinding& f : out) f.check = kRegionCheck;
    return out;
  }

 private:
  // ---- token helpers (unit-bounded) ---------------------------------------

  std::size_t close_of(std::size_t call_ident) const {
    return match_close(t_, call_ident + 1, ue_);
  }

  bool keyword(const std::string& w) const { return keywords_not_calls().count(w) > 0; }

  // Identifier directly followed by '(' and not a keyword: a call, a
  // declaration `Type name(args)`, or a constructor-initializer entry.
  bool call_site(std::size_t i) const {
    return is_ident(t_, i) && is_punct(t_, i + 1, "(") && !keyword(t_[i].text);
  }

  // True when the call site at `i` is a declaration `Type name(args)`;
  // sets `type_name` ("" when the template type cannot be resolved).
  bool is_decl(std::size_t i, std::string& type_name) const {
    if (i <= ub_) return false;
    if (is_ident(t_, i - 1) && !keyword(t_[i - 1].text)) {
      type_name = t_[i - 1].text;
      return true;
    }
    if (is_punct(t_, i - 1, ">") || is_punct(t_, i - 1, ">>")) {
      type_name = angle_type(i - 1);
      return true;
    }
    return false;
  }

  // Walks back from a closing template '>' to its '<' and returns the
  // identifier before it (`vector` in `std::vector<std::uint64_t>`).
  std::string angle_type(std::size_t close) const {
    int depth = is_punct(t_, close, ">>") ? 2 : 1;
    std::size_t p = close;
    while (p > ub_) {
      --p;
      if (t_[p].kind != Token::Kind::kPunct) continue;
      const std::string& s = t_[p].text;
      if (s == ">") ++depth;
      else if (s == ">>") depth += 2;
      else if (s == "<") --depth;
      else if (s == "<<") depth -= 2;
      if (depth <= 0) break;
    }
    if (depth > 0 || p <= ub_ || !is_ident(t_, p - 1)) return "";
    return t_[p - 1].text;
  }

  // Effective callee name for interprocedural purposes: the constructor's
  // type for a declaration, else the called identifier.
  std::string call_target(std::size_t i) const {
    std::string ty;
    if (is_decl(i, ty)) return ty;
    return t_[i].text;
  }

  // Root identifier of the member chain a call is invoked on ("" = free
  // call): `a` for `a.b[j].push_back(...)`.
  std::string receiver_root(std::size_t i) const {
    std::size_t p = i;
    std::string root;
    while (p >= ub_ + 2 && (is_punct(t_, p - 1, ".") || is_punct(t_, p - 1, "->"))) {
      if (is_punct(t_, p - 2, "]") || is_punct(t_, p - 2, ")")) {
        const std::size_t o = match_open(t_, p - 2, ub_);
        if (o == p - 2) break;
        p = o;
        continue;
      }
      if (is_ident(t_, p - 2)) {
        root = t_[p - 2].text;
        p -= 2;
        continue;
      }
      break;
    }
    return root;
  }

  // ---- taint set ----------------------------------------------------------

  void taint(const std::string& name) {
    if (!name.empty() && never_taint_names().count(name) == 0) tainted_.insert(name);
  }

  void seed() {
    for (std::size_t i = ub_; i < ue_; ++i) {
      if (t_[i].kind != Token::Kind::kSecretMark) continue;
      // First identifier after the mark that is not a type name: handles
      // both `std::uint64_t /*secret*/ index` and `/*secret*/ Bytes key`.
      for (std::size_t j = i + 1; j < ue_; ++j) {
        if (is_ident(t_, j) && never_taint_names().count(t_[j].text) == 0) {
          tainted_.insert(t_[j].text);
          break;
        }
      }
    }
  }

  // Tainted use at `i`: a tainted identifier (unless the occurrence is a
  // member chain ending in a called structural accessor), or a call to a
  // function whose return is tainted.
  bool tainted_use(std::size_t i) const {
    if (!is_ident(t_, i)) return false;
    const std::string& w = t_[i].text;
    if (is_punct(t_, i + 1, "(") && g_.ret.count(w) > 0) return true;
    if (tainted_.count(w) == 0) return false;
    std::size_t j = i + 1;
    std::string last;
    bool chained = false;
    while (j + 1 < ue_ && (is_punct(t_, j, ".") || is_punct(t_, j, "->")) &&
           is_ident(t_, j + 1)) {
      last = t_[j + 1].text;
      chained = true;
      j += 2;
    }
    if (chained && is_punct(t_, j, "(") && structural_names().count(last) > 0) return false;
    return true;
  }

  // First tainted use in [b, e), or npos. Outside regions, sanitizer call
  // spans are skipped: `pk.encrypt(secret)` is clean as a whole expression.
  std::size_t first_tainted(std::size_t b, std::size_t e) const {
    for (std::size_t i = std::max(b, ub_); i < e && i < ue_; ++i) {
      if (!region_ && is_ident(t_, i) && sanitizer_names().count(t_[i].text) > 0 &&
          is_punct(t_, i + 1, "(")) {
        i = close_of(i);
        continue;
      }
      if (tainted_use(i)) return i;
    }
    return npos;
  }

  // ---- propagation (assignments + mutators + declarations + range-for) ----

  std::string lhs_root(std::size_t op) const {
    std::size_t p = op;
    while (p > ub_) {
      --p;
      if (is_punct(t_, p, "]") || is_punct(t_, p, ")")) {
        const std::size_t o = match_open(t_, p, ub_);
        if (o == p || o == 0) return "";
        p = o;
        continue;
      }
      if (is_ident(t_, p)) {
        std::string root = t_[p].text;
        while (p >= 1 && (is_punct(t_, p - 1, ".") || is_punct(t_, p - 1, "->"))) {
          if (p >= 2 && is_ident(t_, p - 2)) {
            root = t_[p - 2].text;
            p -= 2;
          } else {
            break;
          }
        }
        return root;
      }
      if (is_punct(t_, p, "*") || is_punct(t_, p, "&")) continue;
      return "";
    }
    return "";
  }


  static bool is_assign_op(const Token& t) {
    if (t.kind != Token::Kind::kPunct) return false;
    static const std::unordered_set<std::string> kOps = {
        "=", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "<<=", ">>="};
    return kOps.count(t.text) > 0;
  }

  bool propagate_once() {
    bool changed = false;
    // Body only: the signature's parameter list is not a call, and its
    // default arguments cannot assign.
    for (std::size_t i = body_; i < ue_; ++i) {
      if (is_assign_op(t_[i])) {
        const std::string root = lhs_root(i);
        if (root.empty() || tainted_.count(root) > 0 ||
            never_taint_names().count(root) > 0) {
          continue;
        }
        if (first_tainted(i + 1, statement_end(t_, i, ue_)) != npos) {
          tainted_.insert(root);
          changed = true;
        }
        continue;
      }
      if (is_ident(t_, i, "for") && is_punct(t_, i + 1, "(")) {
        if (taint_range_for(i)) changed = true;
        continue;
      }
      if (!call_site(i)) continue;
      const std::string& w = t_[i].text;
      const std::size_t close = close_of(i);
      if (mutator_names().count(w) > 0) {
        const std::string root = receiver_root(i);
        if (!root.empty() && tainted_.count(root) == 0 &&
            never_taint_names().count(root) == 0 &&
            first_tainted(i + 2, close) != npos) {
          tainted_.insert(root);
          changed = true;
        }
        continue;
      }
      std::string ty;
      if (is_decl(i, ty)) {
        const std::string& name = w;
        if (tainted_.count(name) == 0 && never_taint_names().count(name) == 0 &&
            first_tainted(i + 2, close) != npos) {
          tainted_.insert(name);
          changed = true;
        }
      }
    }
    return changed;
  }

  // `for (T x : range)` and `for (auto& [a, b] : range)`: a tainted range
  // taints the loop variables, as an element-wise assignment would.
  bool taint_range_for(std::size_t for_kw) {
    const std::size_t close = close_of(for_kw);
    std::size_t colon = npos;
    int depth = 0;
    for (std::size_t p = for_kw + 2; p < close; ++p) {
      if (t_[p].kind != Token::Kind::kPunct) continue;
      const std::string& s = t_[p].text;
      if (s == "(" || s == "[" || s == "{") ++depth;
      else if (s == ")" || s == "]" || s == "}") --depth;
      else if (depth == 0 && s == ";") return false;  // a three-clause loop
      else if (depth == 0 && s == ":" && colon == npos) colon = p;
    }
    if (colon == npos || first_tainted(colon + 1, close) == npos) return false;
    // The declarator's names: one identifier, or a structured binding.
    std::size_t first = colon - 1;
    if (is_punct(t_, first, "]")) first = match_open(t_, first, for_kw + 2);
    bool changed = false;
    for (std::size_t p = first; p < colon; ++p) {
      if (!is_ident(t_, p) || tainted_.count(t_[p].text) > 0 ||
          never_taint_names().count(t_[p].text) > 0) {
        continue;
      }
      tainted_.insert(t_[p].text);
      changed = true;
    }
    return changed;
  }

  void propagate() {
    while (propagate_once()) {
    }
  }

  // ---- checks -------------------------------------------------------------

  std::size_t operand_begin(std::size_t op) const {
    int depth = 0;
    std::size_t p = op;
    while (p > ub_) {
      --p;
      if (t_[p].kind == Token::Kind::kPunct) {
        const std::string& s = t_[p].text;
        if (s == ")" || s == "]" || s == "}") { ++depth; continue; }
        if (s == "(" || s == "[" || s == "{") {
          if (depth == 0) return p + 1;
          --depth;
          continue;
        }
      }
      if (depth == 0 && is_boundary(t_[p])) return p + 1;
    }
    return ub_;
  }

  std::size_t operand_end(std::size_t op) const {
    int depth = 0;
    for (std::size_t p = op + 1; p < ue_; ++p) {
      if (t_[p].kind == Token::Kind::kPunct) {
        const std::string& s = t_[p].text;
        if (s == "(" || s == "[" || s == "{") { ++depth; continue; }
        if (s == ")" || s == "]" || s == "}") {
          if (depth == 0) return p;
          --depth;
          continue;
        }
      }
      if (depth == 0 && is_boundary(t_[p])) return p;
    }
    return ue_;
  }

  static bool is_boundary(const Token& t) {
    if (t.kind == Token::Kind::kIdent) return t.text == "return";
    if (t.kind != Token::Kind::kPunct) return false;
    static const std::unordered_set<std::string> kB = {
        ";", ",", "?", ":", "&&", "||", "{", "}", "=", "+=", "-=", "*=",
        "/=", "%=", "&=", "|=", "^=", "<<=", ">>="};
    return kB.count(t.text) > 0;
  }

  // Every definition of this name lives in the audited core: taint may
  // flow into it freely (the serializer and bignum layers own their own
  // discipline), even when the name is ambiguous among them.
  bool core_callee(const std::string& name) const { return core_names_.count(name) > 0; }

  bool callee_allowed(const std::string& name) const {
    return name.rfind("ct_", 0) == 0 || structural_names().count(name) > 0 ||
           audited_names().count(name) > 0 || (!region_ && core_callee(name));
  }

  // Exempt outside regions only, where the fixpoint checks their bodies.
  bool in_tree(const std::string& name) const { return !region_ && by_name_.count(name) > 0; }

  // A name with exactly one in-tree definition: the only case where the
  // name-based call graph binds a call site to a body reliably.
  bool unambiguous(const std::string& name) const {
    const auto it = by_name_.find(name);
    return it != by_name_.end() && it->second.size() == 1;
  }

  bool type_allowed(const std::string& ty) const {
    return !ty.empty() && (in_tree(ty) || scalar_type_names().count(ty) > 0 ||
                           callee_allowed(ty));
  }

  std::string name_at(std::size_t i) const {
    return i == npos ? std::string("?") : t_[i].text;
  }

  void check_token(std::size_t i, std::vector<RawFinding>& out) const {
    const Token& tk = t_[i];
    if (tk.kind == Token::Kind::kIdent) {
      const std::string& w = tk.text;
      if (region_ && w == "goto") {
        out.push_back({kRegionCheck, tk.line, "goto inside constant-time region"});
        return;
      }
      if ((w == "if" || w == "while" || w == "switch") && is_punct(t_, i + 1, "(")) {
        const std::size_t close = close_of(i);
        const std::size_t ft = first_tainted(i + 2, close);
        if (ft == npos) return;
        // `if (tainted) throw ...`: a validation idiom that intentionally
        // rejects malformed secrets; reported under its own check id.
        std::size_t k = close + 1;
        if (is_punct(t_, k, "{")) ++k;
        if (w == "if" && is_ident(t_, k, "throw")) {
          out.push_back({"tainted-guard", tk.line,
                         "validation throw guarded by tainted '" + name_at(ft) + "'"});
        } else {
          out.push_back({"tainted-branch", tk.line,
                         "`" + w + "` condition depends on tainted '" + name_at(ft) + "'"});
        }
        return;
      }
      if (w == "for" && is_punct(t_, i + 1, "(")) {
        const std::size_t close = close_of(i);
        int depth = 0;
        std::size_t first_semi = 0, second_semi = 0;
        for (std::size_t p = i + 2; p < close; ++p) {
          if (t_[p].kind != Token::Kind::kPunct) continue;
          const std::string& s = t_[p].text;
          if (s == "(" || s == "[" || s == "{") ++depth;
          else if (s == ")" || s == "]" || s == "}") --depth;
          else if (s == ";" && depth == 0) {
            if (first_semi == 0) first_semi = p;
            else { second_semi = p; break; }
          }
        }
        if (first_semi != 0 && second_semi != 0) {
          const std::size_t ft = first_tainted(first_semi + 1, second_semi);
          if (ft != npos) {
            out.push_back({"tainted-branch", tk.line,
                           "`for` condition depends on tainted '" + name_at(ft) + "'"});
          }
        }
        return;
      }
      if (call_site(i)) {
        check_call(i, out);
        return;
      }
      return;
    }
    if (tk.kind != Token::Kind::kPunct) return;
    const std::string& s = tk.text;
    if (s == "?") {
      const std::size_t ft = first_tainted(operand_begin(i), i);
      if (ft != npos) {
        out.push_back({"tainted-branch", tk.line,
                       "ternary condition depends on tainted '" + name_at(ft) + "'"});
      }
      return;
    }
    if (s == "&&" || s == "||") {
      std::size_t ft = first_tainted(operand_begin(i), i);
      if (ft == npos) ft = first_tainted(i + 1, operand_end(i));
      if (ft != npos) {
        out.push_back({"tainted-shortcircuit", tk.line,
                       "short-circuit `" + s + "` on tainted '" + name_at(ft) + "'"});
      }
      return;
    }
    if (s == "/" || s == "%" || s == "/=" || s == "%=") {
      std::size_t ft = first_tainted(operand_begin(i), i);
      if (ft == npos) ft = first_tainted(i + 1, operand_end(i));
      if (ft != npos) {
        out.push_back({"tainted-div", tk.line,
                       "variable-latency `" + s + "` on tainted '" + name_at(ft) + "'"});
      }
      return;
    }
    if (s == "[") {
      const bool subscript = i > ub_ && (is_ident(t_, i - 1) || is_punct(t_, i - 1, "]") ||
                                         is_punct(t_, i - 1, ")"));
      if (subscript) {
        const std::size_t close = match_close(t_, i, ue_);
        const std::size_t ft = first_tainted(i + 1, close);
        if (ft != npos) {
          out.push_back({"tainted-subscript", tk.line,
                         "array index depends on tainted '" + name_at(ft) + "'"});
        }
      }
      return;
    }
  }

  void check_call(std::size_t i, std::vector<RawFinding>& out) const {
    const std::string& w = t_[i].text;
    const std::size_t close = close_of(i);
    std::string ty;
    if (is_decl(i, ty)) {
      const std::size_t ft = first_tainted(i + 2, close);
      if (ft != npos && !type_allowed(ty)) {
        const std::string shown = ty.empty() ? "?" : ty;
        out.push_back({"tainted-call", t_[i].line,
                       "constructor '" + shown + "' receives tainted '" + name_at(ft) +
                           "' (size or content leaks outside the audited set)"});
      }
      return;
    }
    if (!region_) {
      if (sanitizer_names().count(w) > 0) return;  // ciphertext output is public
      if (mutator_names().count(w) > 0) return;  // stores are data-independent writes
    }
    const std::size_t ft = first_tainted(i + 2, close);
    if (ft != npos) {
      // Outside regions, unambiguous in-tree callees are exempt: the
      // fixpoint carried the taint into their parameters and their own
      // bodies get checked. An overloaded name cannot be tracked, so it
      // is treated as unaudited.
      if ((in_tree(w) && unambiguous(w)) || callee_allowed(w)) return;
      out.push_back({"tainted-call", t_[i].line,
                     "call to unaudited '" + w + "' with tainted argument '" +
                         name_at(ft) + "'"});
      return;
    }
    const std::string recv = receiver_root(i);
    if (!recv.empty() && tainted_.count(recv) > 0 && structural_names().count(w) == 0 &&
        !in_tree(w) && !callee_allowed(w)) {
      out.push_back({"tainted-call", t_[i].line,
                     "method '" + w + "' called on tainted receiver '" + recv + "'"});
    }
  }

  const std::vector<Token>& t_;
  std::size_t ub_;    // unit begin (signature start)
  std::size_t ue_;    // unit end (one past closing brace)
  std::size_t body_;  // first body token
  const GlobalTaint& g_;
  const std::unordered_map<std::string, std::vector<std::size_t>>& by_name_;
  const std::unordered_set<std::string>& core_names_;
  const bool region_;
  std::unordered_set<std::string> tainted_;
};

}  // namespace

void Analyzer::pass_taint() {
  GlobalTaint g;

  // Names whose every in-tree definition lives in an audited-core file.
  std::unordered_set<std::string> core_names;
  for (const auto& [name, defs] : by_name_) {
    bool all_core = true;
    for (const std::size_t d : defs) {
      if (!audited_core_file(files_[fns_[d].file].display)) {
        all_core = false;
        break;
      }
    }
    if (all_core) core_names.insert(name);
  }

  const auto injected_names = [&](const FunctionInfo& fn) {
    std::set<std::string> names;
    if (fn.name.empty()) return names;
    const auto it = g.inj.find(fn.name);
    if (it == g.inj.end()) return names;
    for (const std::size_t p : it->second) {
      if (p < fn.params.size() && !fn.params[p].empty()) names.insert(fn.params[p]);
    }
    return names;
  };

  // Global fixpoint: grow tainted-parameter and tainted-return sets until
  // stable. Bounded for safety; real trees converge in a handful of
  // rounds (taint depth = call-chain depth from a /*secret*/ root).
  for (int iter = 0; iter < 64; ++iter) {
    bool changed = false;
    for (const FunctionInfo& fn : fns_) {
      const TaintEngine eng(files_[fn.file], fn, injected_names(fn), g, by_name_,
                            core_names, false);
      // A function with no tainted names can still source taint through a
      // call to a tainted-return function, so only skip when both are empty.
      if (eng.tainted().empty() && g.ret.empty()) continue;
      const LocalResult r = eng.collect();
      // The audited crypto core does not export return taint (see
      // audited_core_file in analyzer.h).
      if (r.returns_tainted && !fn.name.empty() &&
          !audited_core_file(files_[fn.file].display) &&
          g.ret.insert(fn.name).second) {
        changed = true;
      }
      for (const auto& [callee, positions] : r.out) {
        // Bind only names with a single definition: `eval`, `add`, `find`
        // exist on half a dozen unrelated classes, and a name-keyed graph
        // merging them floods the tree with cross-class taint. Ambiguous
        // callees are reported as unaudited at the call site instead.
        const auto defs = by_name_.find(callee);
        if (defs == by_name_.end() || defs->second.size() != 1) continue;
        for (const std::size_t p : positions) {
          if (g.inj[callee].insert(p).second) changed = true;
        }
      }
    }
    if (!changed) break;
  }

  // Final pass: emit findings over every function's whole body. The
  // audited core is skipped: its SPFE_CT regions govern those kernels
  // (checked below), and their variable-length BigInt layer branches on
  // operand shape by design (secrets pass through it blinded).
  for (const FunctionInfo& fn : fns_) {
    if (audited_core_file(files_[fn.file].display)) continue;
    const TaintEngine eng(files_[fn.file], fn, injected_names(fn), g, by_name_,
                          core_names, false);
    if (eng.tainted().empty() && g.ret.empty()) continue;
    const std::string where = fn.qual.empty() ? "(unnamed)" : fn.qual;
    if (cfg_.verbose && !eng.tainted().empty()) {
      std::string names;
      for (const std::string& n : std::set<std::string>(eng.tainted().begin(),
                                                        eng.tainted().end())) {
        names += (names.empty() ? "" : ", ") + n;
      }
      std::fprintf(stdout, "taint: %s:%d %s {%s}\n", files_[fn.file].display.c_str(),
                   fn.line, where.c_str(), names.c_str());
    }
    for (const RawFinding& rf : eng.check()) {
      add_finding(rf.check, files_[fn.file], rf.line, where, rf.message);
    }
  }

  // Region check: every function that holds an SPFE_CT marker. A marker
  // outside every function body would silently cover nothing.
  std::set<const FunctionInfo*> marked;
  for (std::size_t f = 0; f < files_.size(); ++f) {
    const std::vector<Token>& t = files_[f].toks;
    for (std::size_t i = 0; i < t.size(); ++i) {
      if (t[i].kind != Token::Kind::kCtBegin && t[i].kind != Token::Kind::kCtEnd) continue;
      const FunctionInfo* fn = enclosing_function(f, i);
      if (fn != nullptr) {
        marked.insert(fn);
      } else {
        add_finding(kRegionCheck, files_[f], t[i].line, "(file scope)",
                    "SPFE_CT region marker outside a function body");
      }
    }
  }
  const GlobalTaint none;
  for (const FunctionInfo* fn : marked) {
    const TaintEngine eng(files_[fn->file], *fn, {}, none, by_name_, core_names, true);
    for (const RawFinding& rf : eng.check()) {
      add_finding(rf.check, files_[fn->file], rf.line,
                  fn->qual.empty() ? "(unnamed)" : fn->qual, rf.message);
    }
  }
}

}  // namespace spfe::analyze
