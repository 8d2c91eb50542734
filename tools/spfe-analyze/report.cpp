// Reporting: baseline/suppression handling, declassify-audit comparison,
// and the human + JSON emitters.
#include <algorithm>
#include <fstream>
#include <iostream>
#include <sstream>

#include "analyzer.h"
#include "minijson.h"

namespace spfe::analyze {

namespace json = spfe::tools::json;

namespace {

bool read_file(const std::string& path, std::string& out) {
  std::ifstream is(path, std::ios::binary);
  if (!is) return false;
  std::ostringstream ss;
  ss << is.rdbuf();
  out = ss.str();
  return true;
}

}  // namespace

// Baseline file: {"version": 1, "suppressions": [{"check", "file",
// "function"?, "detail"?, "reason"}]}. Every entry must carry a reason —
// an unexplained suppression is a config error, not a quiet pass — and
// none may name the region check: a leak in an SPFE_CT region is fixed,
// never accepted. An entry that matches no finding fails the run
// (apply_baseline).
bool Analyzer::load_baseline() {
  if (cfg_.baseline_path.empty()) return true;
  std::string text;
  if (!read_file(cfg_.baseline_path, text)) {
    std::cerr << "spfe-analyze: cannot open baseline " << cfg_.baseline_path << "\n";
    return false;
  }
  json::Value doc;
  try {
    doc = json::parse(text);
  } catch (const std::exception& e) {
    std::cerr << "spfe-analyze: " << cfg_.baseline_path << ": " << e.what() << "\n";
    return false;
  }
  const json::Value* sup = doc.find("suppressions");
  if (!doc.is_object() || sup == nullptr || !sup->is_array()) {
    std::cerr << "spfe-analyze: " << cfg_.baseline_path
              << ": expected {\"suppressions\": [...]}\n";
    return false;
  }
  for (const json::Value& e : sup->array) {
    BaselineEntry be;
    be.check = e.str_or("check", "");
    be.file = e.str_or("file", "");
    be.function = e.str_or("function", "");
    be.detail = e.str_or("detail", "");
    be.reason = e.str_or("reason", "");
    if (be.check.empty() || be.file.empty()) {
      std::cerr << "spfe-analyze: " << cfg_.baseline_path
                << ": suppression needs at least \"check\" and \"file\"\n";
      return false;
    }
    if (be.reason.empty()) {
      std::cerr << "spfe-analyze: " << cfg_.baseline_path << ": suppression for "
                << be.check << " at " << be.file << " has no \"reason\"\n";
      return false;
    }
    if (be.check == kRegionCheck) {
      std::cerr << "spfe-analyze: " << cfg_.baseline_path << ": " << kRegionCheck
                << " findings at " << be.file << " cannot be suppressed\n";
      return false;
    }
    baseline_.push_back(std::move(be));
  }
  return true;
}

void Analyzer::apply_baseline() {
  for (Finding& f : findings_) {
    for (const BaselineEntry& be : baseline_) {
      if (be.check != f.check || be.file != f.file) continue;
      if (!be.function.empty() && be.function != f.function) continue;
      if (!be.detail.empty() && f.message.find(be.detail) == std::string::npos) continue;
      f.suppressed = true;
      f.suppress_reason = be.reason;
      be.used = true;
      break;
    }
  }
  // A stale entry would silently accept whatever flow next lands at its
  // file and function. Its finding is added after the matching above, so
  // no entry can suppress it.
  for (const BaselineEntry& be : baseline_) {
    if (be.used) continue;
    Finding f;
    f.check = "baseline-stale";
    f.file = be.file;
    f.function = be.function;
    f.message = "suppression of `" + be.check + "` no longer matches any finding — delete "
                "it, or re-point it at the code that moved";
    findings_.push_back(std::move(f));
  }
}

// Audit file: {"version": 1, "exits": [{"file", "function", "kind",
// "reason", "count", "lines"}]}. Exits are matched on (file, function,
// kind, reason) and count; lines are informational so plain edits that
// shift a file do not break the build.
bool Analyzer::check_audit() {
  std::string text;
  if (!read_file(cfg_.audit_path, text)) {
    std::cerr << "spfe-analyze: cannot open audit file " << cfg_.audit_path
              << " (run with --write-audit to create it)\n";
    return false;
  }
  json::Value doc;
  try {
    doc = json::parse(text);
  } catch (const std::exception& e) {
    std::cerr << "spfe-analyze: " << cfg_.audit_path << ": " << e.what() << "\n";
    return false;
  }
  const json::Value* ex = doc.find("exits");
  if (!doc.is_object() || ex == nullptr || !ex->is_array()) {
    std::cerr << "spfe-analyze: " << cfg_.audit_path << ": expected {\"exits\": [...]}\n";
    return false;
  }

  struct AuditEntry {
    std::string file, function, kind, reason;
    std::size_t count = 0;
    bool used = false;
  };
  std::vector<AuditEntry> entries;
  for (const json::Value& e : ex->array) {
    AuditEntry ae;
    ae.file = e.str_or("file", "");
    ae.function = e.str_or("function", "");
    ae.kind = e.str_or("kind", "");
    ae.reason = e.str_or("reason", "");
    const json::Value* c = e.find("count");
    ae.count = c != nullptr && c->is_number() ? static_cast<std::size_t>(c->number) : 0;
    entries.push_back(std::move(ae));
  }

  for (const DeclassifyExit& d : exits_) {
    AuditEntry* match = nullptr;
    for (AuditEntry& ae : entries) {
      if (ae.file == d.file && ae.function == d.function && ae.kind == d.kind &&
          ae.reason == d.reason) {
        match = &ae;
        break;
      }
    }
    const SourceFile* sf = nullptr;
    for (const SourceFile& s : files_) {
      if (s.display == d.file) { sf = &s; break; }
    }
    const int line = d.lines.empty() ? 0 : d.lines.front();
    if (match == nullptr) {
      if (sf != nullptr) {
        add_finding("declassify-unaudited", *sf, line, d.function,
                    "`" + d.kind + "()` exit not in the audit report — review it and "
                    "regenerate with --write-audit");
      }
      continue;
    }
    match->used = true;
    if (match->count != d.lines.size()) {
      if (sf != nullptr) {
        add_finding("declassify-unaudited", *sf, line, d.function,
                    "`" + d.kind + "()` exit count changed (audit says " +
                        std::to_string(match->count) + ", tree has " +
                        std::to_string(d.lines.size()) +
                        ") — review and regenerate with --write-audit");
      }
    }
  }

  for (const AuditEntry& ae : entries) {
    if (ae.used) continue;
    // The audited exit disappeared: the audit report is stale.
    Finding f;
    f.check = "declassify-stale";
    f.file = ae.file;
    f.line = 0;
    f.function = ae.function;
    f.message = "audited `" + ae.kind + "()` exit no longer exists — regenerate the "
                "report with --write-audit";
    findings_.push_back(std::move(f));
  }
  return true;
}

bool Analyzer::write_audit_file() const {
  std::ofstream os(cfg_.audit_path, std::ios::binary | std::ios::trunc);
  if (!os) {
    std::cerr << "spfe-analyze: cannot write " << cfg_.audit_path << "\n";
    return false;
  }
  os << "{\n  \"version\": 1,\n  \"exits\": [";
  for (std::size_t i = 0; i < exits_.size(); ++i) {
    const DeclassifyExit& d = exits_[i];
    os << (i == 0 ? "" : ",") << "\n    {\n"
       << "      \"file\": \"" << json::escape(d.file) << "\",\n"
       << "      \"function\": \"" << json::escape(d.function) << "\",\n"
       << "      \"kind\": \"" << json::escape(d.kind) << "\",\n"
       << "      \"reason\": \"" << json::escape(d.reason) << "\",\n"
       << "      \"count\": " << d.lines.size() << ",\n"
       << "      \"lines\": [";
    for (std::size_t j = 0; j < d.lines.size(); ++j) {
      os << (j == 0 ? "" : ", ") << d.lines[j];
    }
    os << "]\n    }";
  }
  os << (exits_.empty() ? "" : "\n  ") << "]\n}\n";
  return os.good();
}

void Analyzer::emit_text() const {
  std::size_t active = 0, suppressed = 0;
  for (const Finding& f : findings_) {
    if (f.suppressed) {
      ++suppressed;
      if (cfg_.verbose) {
        std::cout << f.file << ":" << f.line << ": suppressed [" << f.check << "] "
                  << f.message << " (" << f.suppress_reason << ")\n";
      }
      continue;
    }
    ++active;
    std::cerr << f.file << ":" << f.line << ": spfe-analyze [" << f.check << "] in "
              << f.function << ": " << f.message << "\n";
  }
  std::cerr << "spfe-analyze: " << active << " finding(s), " << suppressed
            << " suppressed, " << exits_.size() << " declassify exit(s), "
            << fns_.size() << " function(s) across " << files_.size() << " file(s)\n";
}

bool Analyzer::emit_json() const {
  std::ofstream os(cfg_.json_path, std::ios::binary | std::ios::trunc);
  if (!os) {
    std::cerr << "spfe-analyze: cannot write " << cfg_.json_path << "\n";
    return false;
  }
  std::size_t active = 0;
  for (const Finding& f : findings_) active += f.suppressed ? 0 : 1;
  os << "{\n  \"version\": 1,\n  \"tool\": \"spfe-analyze\",\n"
     << "  \"summary\": {\"total\": " << findings_.size() << ", \"active\": " << active
     << ", \"suppressed\": " << (findings_.size() - active)
     << ", \"declassify_exits\": " << exits_.size() << "},\n"
     << "  \"findings\": [";
  for (std::size_t i = 0; i < findings_.size(); ++i) {
    const Finding& f = findings_[i];
    os << (i == 0 ? "" : ",") << "\n    {\"check\": \"" << json::escape(f.check)
       << "\", \"file\": \"" << json::escape(f.file) << "\", \"line\": " << f.line
       << ", \"function\": \"" << json::escape(f.function) << "\", \"message\": \""
       << json::escape(f.message) << "\", \"suppressed\": "
       << (f.suppressed ? "true" : "false");
    if (f.suppressed) {
      os << ", \"reason\": \"" << json::escape(f.suppress_reason) << "\"";
    }
    os << "}";
  }
  os << (findings_.empty() ? "" : "\n  ") << "],\n  \"declassify_exits\": [";
  for (std::size_t i = 0; i < exits_.size(); ++i) {
    const DeclassifyExit& d = exits_[i];
    os << (i == 0 ? "" : ",") << "\n    {\"file\": \"" << json::escape(d.file)
       << "\", \"function\": \"" << json::escape(d.function) << "\", \"kind\": \""
       << json::escape(d.kind) << "\", \"reason\": \"" << json::escape(d.reason)
       << "\", \"count\": " << d.lines.size() << "}";
  }
  os << (exits_.empty() ? "" : "\n  ") << "]\n}\n";
  return os.good();
}

}  // namespace spfe::analyze
