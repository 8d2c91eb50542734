// Source model: file loading, function indexing, and the token utilities
// shared by the analysis passes.
#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>

#include "analyzer.h"

namespace spfe::analyze {

namespace fs = std::filesystem;

std::size_t match_close(const std::vector<Token>& t, std::size_t open, std::size_t limit) {
  const std::string& o = t[open].text;
  const std::string close = o == "(" ? ")" : o == "[" ? "]" : "}";
  int depth = 0;
  for (std::size_t p = open; p < limit; ++p) {
    if (t[p].kind == Token::Kind::kPunct) {
      if (t[p].text == o) ++depth;
      else if (t[p].text == close && --depth == 0) return p;
    }
  }
  return limit == 0 ? 0 : limit - 1;
}

std::size_t match_open(const std::vector<Token>& t, std::size_t close, std::size_t low) {
  const std::string& c = t[close].text;
  const std::string open = c == ")" ? "(" : c == "]" ? "[" : "{";
  int depth = 0;
  for (std::size_t p = close; p + 1 > low; --p) {
    if (t[p].kind == Token::Kind::kPunct) {
      if (t[p].text == c) ++depth;
      else if (t[p].text == open && --depth == 0) return p;
    }
    if (p == 0) break;
  }
  return close;
}

std::size_t statement_end(const std::vector<Token>& t, std::size_t op, std::size_t limit) {
  int depth = 0;
  for (std::size_t j = op + 1; j < limit; ++j) {
    if (t[j].kind != Token::Kind::kPunct) continue;
    const std::string& s = t[j].text;
    if (s == "(" || s == "[" || s == "{") ++depth;
    else if (s == ")" || s == "]" || s == "}") {
      if (depth == 0) return j;
      --depth;
    } else if (s == ";" && depth == 0) {
      return j;
    }
  }
  return limit;
}

const std::unordered_set<std::string>& structural_names() {
  static const std::unordered_set<std::string> kSet = {
      "size",  "empty", "bit_length", "resize", "reserve", "push_back",
      "clear", "begin", "end",        "mask",   "data",    "capacity",
      "front", "back",  "value",      "declassify",
  };
  return kSet;
}

const std::unordered_set<std::string>& audited_names() {
  static const std::unordered_set<std::string> kSet = {
      // Montgomery kernels, each an SPFE_CT region of its own.
      "mont_mul", "mont_sqr",
      // Limb access: the limbs of a secret are secret.
      "limbs",
      // SecretBool factories and mask-driven selects.
      "from_mask", "from_bit", "select",
      // std::move: a cast, data-independent.
      "move",
  };
  return kSet;
}

const std::unordered_set<std::string>& sanitizer_names() {
  static const std::unordered_set<std::string> kSet = {
      // Randomized encryption: ciphertexts of secrets are public (IND-CPA).
      "encrypt", "encrypt_with_factor", "encrypt_with_factors", "encrypt_with_randomness",
      "rerandomize",
  };
  return kSet;
}

const std::unordered_set<std::string>& never_taint_names() {
  static const std::unordered_set<std::string> kSet = {
      "std",    "size_t", "uint8_t", "uint16_t", "uint32_t", "uint64_t", "int8_t",
      "int16_t", "int32_t", "int64_t", "ptrdiff_t", "int",    "unsigned", "signed",
      "bool",   "char",   "double",  "float",    "auto",     "void",     "const",
      "u64",    "u8",     "u128",    "BigInt",   "Bytes",    "BytesView", "Writer",
      "Reader", "Prg",    "string",  "vector",   "span",     "array",    "pair",
      "tuple",  "optional", "function", "this",
  };
  return kSet;
}

const std::unordered_set<std::string>& keywords_not_calls() {
  static const std::unordered_set<std::string> kSet = {
      "if",      "while",    "for",      "switch", "return",   "sizeof",
      "alignof", "decltype", "noexcept", "catch",  "throw",    "operator",
      "static_assert", "else", "do", "case", "new", "delete",
  };
  return kSet;
}

bool audited_core_file(const std::string& display) {
  return display.find("src/common/") != std::string::npos ||
         display.find("src/bignum/") != std::string::npos ||
         display.find("src/crypto/") != std::string::npos ||
         display.find("src/he/") != std::string::npos;
}

namespace {

bool source_extension(const fs::path& p) {
  const std::string e = p.extension().string();
  return e == ".h" || e == ".hpp" || e == ".cpp" || e == ".cc" || e == ".cxx";
}

// Function-unit finder: a brace is a function-body opener when it directly
// follows `)` — optionally with cv/ref/exception qualifiers in between.
// Constructor initializer lists need no special case: the `{` after
// `) : member_(x)` follows the initializer's `)`, and the signature
// walk-back (to the previous `;` / `}` / `{`) still captures the whole
// signature including the real parameter list, which naming recovers as
// the first top-level `(` of the signature region.
struct UnitFinder {
  const std::vector<Token>& t;

  // True when the '{' at `i` opens a function body; sets sig_start.
  bool body_opener(std::size_t i, std::size_t& sig_start) const {
    static const std::unordered_set<std::string> kQualifiers = {
        "const", "noexcept", "override", "final", "mutable", "try"};
    if (i == 0) return false;
    std::size_t j = i - 1;
    while (j > 0 && is_ident(t, j) && kQualifiers.count(t[j].text) > 0) --j;
    if (!is_punct(t, j, ")")) return false;
    sig_start = find_sig_start(i);
    return true;
  }

  // Walks back from the body brace to the start of the signature: just
  // after the previous `;` / `}` / `{` / trailing CT_END.
  std::size_t find_sig_start(std::size_t from) const {
    std::size_t h = from;
    while (h > 0) {
      const Token& tk = t[h - 1];
      if (tk.kind == Token::Kind::kPunct &&
          (tk.text == ";" || tk.text == "}" || tk.text == "{")) {
        break;
      }
      if (tk.kind == Token::Kind::kCtEnd) break;
      --h;
    }
    return h;
  }
};

}  // namespace

bool Analyzer::load_files() {
  std::vector<fs::path> paths;
  for (const std::string& in : cfg_.roots) {
    std::error_code ec;
    const fs::path p(in);
    if (fs::is_directory(p, ec)) {
      for (const auto& entry : fs::recursive_directory_iterator(p, ec)) {
        if (entry.is_regular_file() && source_extension(entry.path())) {
          paths.push_back(entry.path());
        }
      }
    } else if (fs::is_regular_file(p, ec)) {
      paths.push_back(p);
    } else {
      std::cerr << "spfe-analyze: cannot read " << in << "\n";
      return false;
    }
  }
  std::sort(paths.begin(), paths.end());
  for (const fs::path& p : paths) {
    std::ifstream is(p, std::ios::binary);
    if (!is) {
      std::cerr << "spfe-analyze: cannot open " << p.string() << "\n";
      return false;
    }
    std::ostringstream ss;
    ss << is.rdbuf();
    SourceFile sf;
    sf.path = p.string();
    sf.display = sf.path;
    if (!cfg_.strip_prefix.empty() && sf.display.rfind(cfg_.strip_prefix, 0) == 0) {
      sf.display = sf.display.substr(cfg_.strip_prefix.size());
    }
    sf.toks = spfe::tools::tokenize(ss.str());
    files_.push_back(std::move(sf));
  }
  return true;
}

void Analyzer::index_functions() {
  for (std::size_t f = 0; f < files_.size(); ++f) {
    const std::vector<Token>& t = files_[f].toks;
    UnitFinder uf{t};
    int depth = 0;
    int unit_depth = -1;
    FunctionInfo cur;
    for (std::size_t i = 0; i < t.size(); ++i) {
      if (t[i].kind != Token::Kind::kPunct) continue;
      if (t[i].text == "{") {
        std::size_t sig_start = 0;
        if (unit_depth < 0 && uf.body_opener(i, sig_start)) {
          cur = FunctionInfo{};
          cur.file = f;
          cur.begin = sig_start;
          cur.body_open = i;
          cur.line = t[i].line;
          unit_depth = depth;
        }
        ++depth;
      } else if (t[i].text == "}") {
        --depth;
        if (unit_depth >= 0 && depth == unit_depth) {
          std::size_t end = i + 1;
          if (end < t.size() && t[end].kind == Token::Kind::kCtEnd) ++end;
          cur.end = end;
          fns_.push_back(cur);
          unit_depth = -1;
        }
      }
    }
  }

  // Resolve names and parameters: the parameter list is the first top-level
  // '(' in the signature region preceded by an identifier.
  for (FunctionInfo& fn : fns_) {
    const std::vector<Token>& t = files_[fn.file].toks;
    std::size_t open = fn.begin;
    std::size_t name_tok = 0;
    bool found = false;
    int angle = 0;
    for (std::size_t i = fn.begin; i < fn.body_open; ++i) {
      if (t[i].kind == Token::Kind::kPunct) {
        // Track template angle brackets so `std::function<X(Y)>` in a return
        // type does not donate its '(' as the parameter list.
        if (t[i].text == "<") ++angle;
        else if (t[i].text == ">") angle = angle > 0 ? angle - 1 : 0;
        else if (t[i].text == ">>") angle = angle > 1 ? angle - 2 : 0;
        else if (t[i].text == "(" && angle == 0) {
          if (i > fn.begin && is_ident(t, i - 1) &&
              keywords_not_calls().count(t[i - 1].text) == 0) {
            open = i;
            name_tok = i - 1;
            found = true;
          }
          break;  // first top-level '(' decides either way
        }
      }
    }
    if (!found) continue;  // operator overloads etc.: anonymous unit
    fn.name = t[name_tok].text;
    fn.qual = fn.name;
    if (name_tok >= 2 && is_punct(t, name_tok - 1, "::") && is_ident(t, name_tok - 2)) {
      fn.qual = t[name_tok - 2].text + "::" + fn.name;
    }
    const std::size_t close = match_close(t, open, fn.body_open + 1);
    for (const auto& [b, e] : split_args(t, open, close)) {
      std::string pname;
      int a2 = 0;
      for (std::size_t j = b; j < e; ++j) {
        if (t[j].kind == Token::Kind::kPunct) {
          if (t[j].text == "<") ++a2;
          else if (t[j].text == ">") a2 = a2 > 0 ? a2 - 1 : 0;
          else if (t[j].text == ">>") a2 = a2 > 1 ? a2 - 2 : 0;
          else if (t[j].text == "=" && a2 == 0) break;  // default argument
          else if (t[j].text == "(" || t[j].text == "[") {
            j = match_close(t, j, e);  // skip nested groups (function types)
            continue;
          }
        }
        if (is_ident(t, j) && a2 == 0) pname = t[j].text;
      }
      if (never_taint_names().count(pname) > 0) pname.clear();
      fn.params.push_back(pname);
    }
    by_name_[fn.name].push_back(&fn - fns_.data());
  }
}

std::vector<std::pair<std::size_t, std::size_t>> split_args(const std::vector<Token>& t,
                                                            std::size_t open,
                                                            std::size_t close) {
  std::vector<std::pair<std::size_t, std::size_t>> out;
  if (close <= open + 1) return out;
  int depth = 0;
  int angle = 0;
  std::size_t b = open + 1;
  for (std::size_t i = open + 1; i < close; ++i) {
    if (t[i].kind != Token::Kind::kPunct) continue;
    const std::string& s = t[i].text;
    if (s == "(" || s == "[" || s == "{") ++depth;
    else if (s == ")" || s == "]" || s == "}") --depth;
    else if (s == "<") ++angle;
    else if (s == ">") angle = angle > 0 ? angle - 1 : 0;
    else if (s == "," && depth == 0 && angle == 0) {
      out.emplace_back(b, i);
      b = i + 1;
    }
  }
  out.emplace_back(b, close);
  return out;
}

const FunctionInfo* Analyzer::enclosing_function(std::size_t file, std::size_t tok) const {
  const FunctionInfo* best = nullptr;
  for (const FunctionInfo& fn : fns_) {
    if (fn.file != file || tok < fn.begin || tok >= fn.end) continue;
    if (best == nullptr || fn.begin >= best->begin) best = &fn;
  }
  return best;
}

void Analyzer::add_finding(const std::string& check, const SourceFile& sf, int line,
                           const std::string& function, const std::string& message) {
  findings_.push_back({check, sf.display, line, function, message, false, ""});
}

}  // namespace spfe::analyze
