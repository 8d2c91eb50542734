// spfe-analyze entry point. See analyzer.h for the pass descriptions.
#include <iostream>
#include <string>

#include "analyzer.h"

namespace spfe::analyze {

int Analyzer::run() {
  if (!load_files()) return 2;
  index_functions();
  if (!load_baseline()) return 2;

  pass_taint();
  pass_declassify();
  pass_hygiene();

  if (cfg_.write_audit) {
    if (cfg_.audit_path.empty()) {
      std::cerr << "spfe-analyze: --write-audit requires --audit PATH\n";
      return 2;
    }
    if (!write_audit_file()) return 2;
    std::cerr << "spfe-analyze: wrote " << exits_.size() << " declassify exit(s) to "
              << cfg_.audit_path << "\n";
  } else if (!cfg_.audit_path.empty()) {
    if (!check_audit()) return 2;
  }

  apply_baseline();
  emit_text();
  if (!cfg_.json_path.empty() && !emit_json()) return 2;

  for (const Finding& f : findings_) {
    if (!f.suppressed) return 1;
  }
  return 0;
}

}  // namespace spfe::analyze

namespace {

void usage(std::ostream& os) {
  os << "usage: spfe-analyze [options] <file-or-dir>...\n"
        "  --baseline PATH   suppression file (every entry needs a reason)\n"
        "  --audit PATH      declassify audit report to check against\n"
        "  --write-audit     regenerate the audit report instead of checking\n"
        "  --json PATH       write the machine-readable findings report\n"
        "  --strip-prefix P  strip P from paths in reports/baselines\n"
        "  --verbose         print per-function taint sets and suppressions\n";
}

}  // namespace

int main(int argc, char** argv) {
  spfe::analyze::Config cfg;
  for (int a = 1; a < argc; ++a) {
    const std::string arg = argv[a];
    const auto need_value = [&](const char* flag) -> const char* {
      if (a + 1 >= argc) {
        std::cerr << "spfe-analyze: " << flag << " requires a value\n";
        return nullptr;
      }
      return argv[++a];
    };
    if (arg == "--baseline") {
      const char* v = need_value("--baseline");
      if (v == nullptr) return 2;
      cfg.baseline_path = v;
    } else if (arg == "--audit") {
      const char* v = need_value("--audit");
      if (v == nullptr) return 2;
      cfg.audit_path = v;
    } else if (arg == "--json") {
      const char* v = need_value("--json");
      if (v == nullptr) return 2;
      cfg.json_path = v;
    } else if (arg == "--strip-prefix") {
      const char* v = need_value("--strip-prefix");
      if (v == nullptr) return 2;
      cfg.strip_prefix = v;
    } else if (arg == "--write-audit") {
      cfg.write_audit = true;
    } else if (arg == "--verbose") {
      cfg.verbose = true;
    } else if (arg == "--help") {
      usage(std::cout);
      return 0;
    } else if (!arg.empty() && arg[0] == '-') {
      std::cerr << "spfe-analyze: unknown option " << arg << "\n";
      usage(std::cerr);
      return 2;
    } else {
      cfg.roots.push_back(arg);
    }
  }
  if (cfg.roots.empty()) {
    usage(std::cerr);
    return 2;
  }
  spfe::analyze::Analyzer analyzer(std::move(cfg));
  return analyzer.run();
}
