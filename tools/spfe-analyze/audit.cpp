// Pass 2 — declassification audit.
//
// `.declassify()` / `.value()` calls (`SecretBool::declassify()` in
// src/common/secret.h) are the only sanctioned taint exits. Each call
// site must be justified in the source with an adjacent
//
//   // SPFE_DECLASSIFY: <reason>
//
// comment (same line or the line directly above), and must appear with
// the same justification in the committed audit report
// (tools/spfe-analyze/declassify_audit.json), which makes every new
// secret-to-public flow show up in code review as a diff of that file.
// Sites are aggregated per (file, function, kind, reason): line numbers
// are recorded for humans but not compared, so unrelated edits shifting
// a file do not break the build.
#include "analyzer.h"

namespace spfe::analyze {

void Analyzer::pass_declassify() {
  for (std::size_t f = 0; f < files_.size(); ++f) {
    const SourceFile& sf = files_[f];
    const std::vector<Token>& t = sf.toks;

    // SPFE_DECLASSIFY comment lines -> reason text.
    std::map<int, std::string> notes;
    for (const Token& tk : t) {
      if (tk.kind == Token::Kind::kDeclassifyNote) notes[tk.line] = tk.text;
    }

    for (std::size_t i = 1; i + 1 < t.size(); ++i) {
      if (!is_ident(t, i)) continue;
      const std::string& w = t[i].text;
      if (w != "declassify" && w != "value") continue;
      if (!is_punct(t, i + 1, "(")) continue;
      if (!is_punct(t, i - 1, ".") && !is_punct(t, i - 1, "->")) continue;

      const int line = t[i].line;
      std::string reason;
      if (const auto it = notes.find(line); it != notes.end()) {
        reason = it->second;
      } else if (const auto above = notes.find(line - 1); above != notes.end()) {
        reason = above->second;
      }

      const FunctionInfo* fn = enclosing_function(f, i);
      const std::string where =
          fn == nullptr ? "(file scope)" : fn->qual.empty() ? "(unnamed)" : fn->qual;

      if (reason.empty()) {
        add_finding("declassify-unjustified", sf, line, where,
                    "`" + w + "()` taint exit without an adjacent "
                    "`// SPFE_DECLASSIFY: <reason>` comment");
      }

      bool merged = false;
      for (DeclassifyExit& ex : exits_) {
        if (ex.file == sf.display && ex.function == where && ex.kind == w &&
            ex.reason == reason) {
          ex.lines.push_back(line);
          merged = true;
          break;
        }
      }
      if (!merged) exits_.push_back({sf.display, where, w, reason, {line}});
    }
  }
}

}  // namespace spfe::analyze
