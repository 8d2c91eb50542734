// Comment/string-aware C++ tokenizer for the SPFE static analyzer
// (tools/spfe-analyze).
//
// This is deliberately NOT a C++ parser: it produces a flat token stream
// with enough structure for name-based taint analysis — identifiers,
// numbers, punctuation (longest-match), string/char literals collapsed to
// one token, preprocessor lines skipped — plus the three in-source markers
// the analysis layers consume:
//
//   * `// SPFE_CT_BEGIN(name)` / `// SPFE_CT_END`  -> kCtBegin / kCtEnd
//     (the annotated constant-time regions of the analyzer's region check);
//   * `/*secret*/`                                  -> kSecretMark
//     (taints the next identifier: parameter and local declarations);
//   * `// SPFE_DECLASSIFY: <reason>`                -> kDeclassifyNote
//     (justification for an adjacent declassify()/value() taint exit,
//     consumed by spfe-analyze's declassification audit).
#pragma once

#include <cctype>
#include <cstddef>
#include <string>
#include <vector>

namespace spfe::tools {

struct Token {
  enum class Kind {
    kIdent,
    kNumber,
    kPunct,
    kLiteral,
    kCtBegin,       // text = region name
    kCtEnd,
    kSecretMark,
    kDeclassifyNote,  // text = justification reason (may be empty = missing)
  };
  Kind kind;
  std::string text;
  int line;
};

inline bool ident_start(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) || c == '_';
}
inline bool ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

// Longest-match punctuation, checked in order.
inline const char* const kPuncts[] = {
    "<<=", ">>=", "<=>", "...", "->*", "::", "->", "==", "!=", "<=", ">=", "&&",
    "||",  "<<",  ">>",  "+=",  "-=",  "*=", "/=", "%=", "&=", "|=", "^=", "++",
    "--",
};

inline std::string trim(const std::string& s) {
  std::size_t b = s.find_first_not_of(" \t\r");
  if (b == std::string::npos) return "";
  std::size_t e = s.find_last_not_of(" \t\r");
  return s.substr(b, e - b + 1);
}

inline std::vector<Token> tokenize(const std::string& src) {
  std::vector<Token> out;
  int line = 1;
  std::size_t i = 0;
  const std::size_t n = src.size();
  bool at_line_start = true;  // only whitespace seen since last newline

  auto advance_over = [&](std::size_t to) {
    for (; i < to; ++i) {
      if (src[i] == '\n') ++line;
    }
  };

  while (i < n) {
    const char c = src[i];
    if (c == '\n') {
      ++line;
      ++i;
      at_line_start = true;
      continue;
    }
    if (c == ' ' || c == '\t' || c == '\r') {
      ++i;
      continue;
    }
    // Preprocessor directive: skip to end of line, honoring continuations.
    if (c == '#' && at_line_start) {
      while (i < n) {
        std::size_t eol = src.find('\n', i);
        if (eol == std::string::npos) {
          i = n;
          break;
        }
        // Continuation if the last non-CR char before the newline is '\'.
        std::size_t last = eol;
        while (last > i && (src[last - 1] == '\r')) --last;
        const bool cont = last > i && src[last - 1] == '\\';
        advance_over(eol + 1);
        at_line_start = true;
        if (!cont) break;
      }
      continue;
    }
    at_line_start = false;
    // Line comment: may carry a region or declassify marker.
    if (c == '/' && i + 1 < n && src[i + 1] == '/') {
      std::size_t eol = src.find('\n', i);
      if (eol == std::string::npos) eol = n;
      const std::string body = trim(src.substr(i + 2, eol - i - 2));
      if (body.rfind("SPFE_CT_BEGIN(", 0) == 0) {
        const std::size_t close = body.find(')');
        const std::string name =
            close == std::string::npos ? "" : body.substr(14, close - 14);
        out.push_back({Token::Kind::kCtBegin, name, line});
      } else if (body.rfind("SPFE_CT_END", 0) == 0) {
        out.push_back({Token::Kind::kCtEnd, "", line});
      } else if (body.rfind("SPFE_DECLASSIFY", 0) == 0) {
        // Reason is everything after the colon; "SPFE_DECLASSIFY" with no
        // colon or an empty reason yields empty text (a missing
        // justification the audit pass rejects).
        std::string reason;
        const std::size_t colon = body.find(':');
        if (colon != std::string::npos) reason = trim(body.substr(colon + 1));
        out.push_back({Token::Kind::kDeclassifyNote, reason, line});
      }
      advance_over(eol);
      continue;
    }
    // Block comment: exactly "/*secret*/" is the taint marker.
    if (c == '/' && i + 1 < n && src[i + 1] == '*') {
      std::size_t close = src.find("*/", i + 2);
      if (close == std::string::npos) close = n;
      const std::string body = src.substr(i + 2, close - i - 2);
      if (body == "secret") out.push_back({Token::Kind::kSecretMark, "", line});
      advance_over(close + 2 < n ? close + 2 : n);
      continue;
    }
    // String / char literals (escape-aware; no raw-string support needed).
    if (c == '"' || c == '\'') {
      const char quote = c;
      std::size_t j = i + 1;
      while (j < n && src[j] != quote) {
        if (src[j] == '\\' && j + 1 < n) ++j;
        ++j;
      }
      out.push_back({Token::Kind::kLiteral, "", line});
      advance_over(j + 1 < n ? j + 1 : n);
      continue;
    }
    if (ident_start(c)) {
      std::size_t j = i + 1;
      while (j < n && ident_char(src[j])) ++j;
      out.push_back({Token::Kind::kIdent, src.substr(i, j - i), line});
      i = j;
      continue;
    }
    if (std::isdigit(static_cast<unsigned char>(c)) ||
        (c == '.' && i + 1 < n && std::isdigit(static_cast<unsigned char>(src[i + 1])))) {
      std::size_t j = i + 1;
      while (j < n) {
        const char d = src[j];
        if (ident_char(d) || d == '.' || d == '\'') {
          ++j;
        } else if ((d == '+' || d == '-') && (src[j - 1] == 'e' || src[j - 1] == 'E' ||
                                              src[j - 1] == 'p' || src[j - 1] == 'P')) {
          ++j;
        } else {
          break;
        }
      }
      out.push_back({Token::Kind::kNumber, src.substr(i, j - i), line});
      i = j;
      continue;
    }
    // Punctuation, longest match first.
    bool matched = false;
    for (const char* p : kPuncts) {
      const std::size_t len = std::char_traits<char>::length(p);
      if (src.compare(i, len, p) == 0) {
        out.push_back({Token::Kind::kPunct, p, line});
        i += len;
        matched = true;
        break;
      }
    }
    if (!matched) {
      out.push_back({Token::Kind::kPunct, std::string(1, c), line});
      ++i;
    }
  }
  return out;
}

}  // namespace spfe::tools
