// spfe-analyze — whole-tree secret-taint analyzer for the SPFE sources.
//
// A token-level analyzer over the comment/string-aware tokenizer in
// tools/common/lexer.h. It runs over the whole tree with no annotation
// required and reports in three passes:
//
//   Pass 1 — secret taint, one engine run two ways.
//
//   Whole tree, interprocedural: every function definition in the tree
//   is indexed; a name-based call graph binds tainted caller arguments to
//   callee parameters and tainted callee returns back to call sites, to a
//   fixpoint over the whole tree. A helper that receives a `/*secret*/`
//   value through one or more call hops then has its *entire body* checked
//   for secret-dependent constructs (branches, short-circuit, subscripts,
//   division, calls leaking taint into non-audited external functions) —
//   even though the helper carries no annotation of its own. Taint exits
//   the analysis only through the audited channels: the `declassify()` /
//   `value()` exits (pass 2 audits those), the structural accessors
//   (`size()`, ...), and the semantic sanitizers (the `encrypt*` /
//   `rerandomize` family — a ciphertext of a secret is public by
//   IND-CPA, which is the paper's own privacy argument).
//
//   SPFE_CT regions: the code between `// SPFE_CT_BEGIN(name)` and
//   `// SPFE_CT_END`, in every file, with taint seeded only from the
//   enclosing function's own `/*secret*/` marks. Inside a region a
//   tainted value may reach only `ct_*`, structural and audited callees;
//   none of the whole-tree exemptions (in-tree and core callees,
//   sanitizers, mutators) applies. Region findings (check `ct-region`)
//   cannot be baselined.
//
//   Pass 2 — declassification audit. Every `.declassify()` / `.value()`
//   taint exit must carry an adjacent `// SPFE_DECLASSIFY: <reason>`
//   comment (same line or the line above) and appear, with the same
//   reason, in the committed audit report (declassify_audit.json). A new
//   exit, a missing justification, or a stale audit entry fails the run;
//   `--write-audit` regenerates the report for diff review.
//
//   Pass 3 — protocol-hygiene lints. (a) deserialization bounds: inside
//   any function that parses wire data through `Reader`, an element count
//   read from the wire (`varint()` / `u64()` / ...) must flow through
//   `Reader::varint_count` before it reaches a `resize` / `reserve` /
//   container-size constructor or a loop bound — the PR 6 regression
//   class (adversarial 2^60 counts reaching an allocation), enforced
//   instead of remembered. (b) unmetered I/O: OS-level socket calls
//   anywhere, and access to the StarNetwork queue internals outside
//   src/net/, bypass CommStats metering and are rejected.
//
// Findings are emitted as human-readable diagnostics and a machine-
// readable JSON report. A committed baseline file suppresses accepted
// findings; every suppression must carry a written reason, and one that
// matches no finding is itself a finding (`baseline-stale`). Exit status:
// 0 = clean (all findings baselined), 1 = non-baselined findings,
// 2 = usage/IO/config error.
//
// Model limits (deliberate, documented): the analysis is token-level and
// name-based — no overload resolution (same-name functions share taint),
// no flow sensitivity (a name tainted anywhere in a function is tainted
// everywhere in it), and receiver objects do not propagate taint into
// method bodies (field-level taint is out of scope). This over-taints,
// which is the correct direction for a gate whose misses are silent.
#pragma once

#include <map>
#include <set>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "lexer.h"

namespace spfe::analyze {

using spfe::tools::Token;

struct SourceFile {
  std::string path;     // as opened (possibly absolute)
  std::string display;  // strip-prefix applied; used in reports and baselines
  std::vector<Token> toks;
};

// One function definition: signature tokens (which carry the /*secret*/
// parameter marks) plus the body brace block.
struct FunctionInfo {
  std::size_t file = 0;
  std::string name;  // unqualified; "" when unresolvable (operators, lambdas)
  std::string qual;  // display name, e.g. "PaillierPir::make_query"
  std::size_t begin = 0;      // first signature token
  std::size_t body_open = 0;  // token index of the body '{'
  std::size_t end = 0;        // one past the closing '}' (and trailing CT_END)
  int line = 0;               // line of the body '{'
  std::vector<std::string> params;  // positional parameter names ("" = unnamed)
};

struct Finding {
  std::string check;  // e.g. "tainted-branch"
  std::string file;   // display path
  int line = 0;
  std::string function;
  std::string message;
  bool suppressed = false;
  std::string suppress_reason;
};

// One declassify()/value() taint exit discovered by pass 2.
struct DeclassifyExit {
  std::string file;  // display path
  std::string function;
  std::string kind;    // "declassify" | "value"
  std::string reason;  // from the adjacent SPFE_DECLASSIFY comment ("" = missing)
  std::vector<int> lines;  // informational; not compared against the audit file
};

struct BaselineEntry {
  std::string check;
  std::string file;
  std::string function;  // "" matches any function
  std::string detail;    // "" matches any message; else substring match
  std::string reason;
  mutable bool used = false;
};

struct Config {
  std::vector<std::string> roots;
  std::string strip_prefix;
  std::string baseline_path;
  std::string audit_path;
  std::string json_path;
  bool write_audit = false;
  bool verbose = false;
};

// Check id of every SPFE_CT region finding; a baseline may not name it.
inline constexpr char kRegionCheck[] = "ct-region";

class Analyzer {
 public:
  explicit Analyzer(Config cfg) : cfg_(std::move(cfg)) {}

  // Returns the process exit status (0 clean / 1 findings / 2 error).
  int run();

 private:
  // ---- model.cpp -----------------------------------------------------------
  bool load_files();          // tokenize every source file under roots
  void index_functions();     // units, names, params, by-name call-graph map

  // ---- taint.cpp -----------------------------------------------------------
  void pass_taint();

  // ---- audit.cpp -----------------------------------------------------------
  void pass_declassify();

  // ---- hygiene.cpp ---------------------------------------------------------
  void pass_hygiene();

  // ---- report.cpp ----------------------------------------------------------
  bool load_baseline();   // false on config error (exit 2)
  bool check_audit();     // compares discovered exits against the audit file
  bool write_audit_file() const;
  void apply_baseline();
  void emit_text() const;
  bool emit_json() const;

  void add_finding(const std::string& check, const SourceFile& sf, int line,
                   const std::string& function, const std::string& message);
  const FunctionInfo* enclosing_function(std::size_t file, std::size_t tok) const;

  Config cfg_;
  std::vector<SourceFile> files_;
  std::vector<FunctionInfo> fns_;
  // function name -> indices into fns_ (merged overloads / same-name defs)
  std::unordered_map<std::string, std::vector<std::size_t>> by_name_;
  std::vector<Finding> findings_;
  std::vector<DeclassifyExit> exits_;
  std::vector<BaselineEntry> baseline_;
  bool config_error_ = false;
};

// ---------------------------------------------------------------------------
// Shared token utilities (used by all passes).

inline bool is_ident(const std::vector<Token>& t, std::size_t i) {
  return i < t.size() && t[i].kind == Token::Kind::kIdent;
}
inline bool is_ident(const std::vector<Token>& t, std::size_t i, const char* s) {
  return is_ident(t, i) && t[i].text == s;
}
inline bool is_punct(const std::vector<Token>& t, std::size_t i, const char* s) {
  return i < t.size() && t[i].kind == Token::Kind::kPunct && t[i].text == s;
}

// Index of the closing bracket matching the opener at `open`, bounded by
// `limit` (exclusive). Returns limit - 1 when unbalanced.
std::size_t match_close(const std::vector<Token>& t, std::size_t open, std::size_t limit);

// Index of the opening bracket matching the closer at `close`, searching
// backward no earlier than `low`. Returns `close` when unbalanced.
std::size_t match_open(const std::vector<Token>& t, std::size_t close, std::size_t low);

// The top-level comma-separated spans of the bracket group opening at
// `open` and closing at `close` (exclusive of the brackets; template
// angle brackets nest); empty when the group is empty.
std::vector<std::pair<std::size_t, std::size_t>> split_args(const std::vector<Token>& t,
                                                            std::size_t open,
                                                            std::size_t close);

// End (exclusive) of the statement whose operator is at `op`: the next
// top-level `;`, or the closer of the enclosing bracket group, bounded by
// `limit`.
std::size_t statement_end(const std::vector<Token>& t, std::size_t op, std::size_t limit);

// ---------------------------------------------------------------------------
// Audited name sets (shared by the taint pass and its documentation).

// Member accessors that expose public shape or are audited taint exits: a
// member chain ending in one of these (called) is not a tainted use.
const std::unordered_set<std::string>& structural_names();
// Reviewed branch-free kernels / trivial accessors that may receive tainted
// values without a finding (and never propagate interprocedurally). Unlike
// a structural accessor, `e.limbs()` on a tainted `e` is a tainted use.
const std::unordered_set<std::string>& audited_names();
// Semantic sanitizers: randomized encryption of a tainted value yields a
// public ciphertext. Calls stop taint (arguments inside the call do not
// taint the surrounding expression) and never propagate into the callee.
const std::unordered_set<std::string>& sanitizer_names();
// Names that must never enter a taint set (type-ish identifiers that the
// name-based parameter heuristic can pick up for unnamed parameters).
const std::unordered_set<std::string>& never_taint_names();
// Keywords that look like calls but are not.
const std::unordered_set<std::string>& keywords_not_calls();
// True for files in the audited crypto core (src/common/, src/bignum/,
// src/crypto/, src/he/). Functions there receive interprocedural taint and have their
// bodies checked, but do not *export* return taint: their return values
// are blinded group elements, ciphertexts, or randomness-pool material —
// public by protocol design — and their secret handling is governed by
// their SPFE_CT regions, which pass 1 checks. Without this boundary,
// `ModArith::pow(base, /*secret*/ exp)` marks every ciphertext in the
// tree tainted and the analysis drowns in its own conservatism.
bool audited_core_file(const std::string& display);

}  // namespace spfe::analyze
