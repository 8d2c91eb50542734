// Command-line entry of the query benchmark (see querybench.h).
//
//   perfbench_query --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Prints three JSON lines: {"context": ...}, {"exact": ...} and, last, the
// result {"correct", "attempted", "failed", "metrics"}. Exits 1 when any
// query failed or any check did not hold, 2 on bad arguments.
#include <cstdio>
#include <exception>
#include <stdexcept>
#include <string>

#include "querybench.h"

namespace {

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench_query: %s\nusage: perfbench_query --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1>\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options o;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (i + 1 >= argc) return usage(("missing value for " + arg).c_str());
      const std::string value = argv[++i];
      if (arg == "--workload") {
        o.workload = value;
      } else if (arg == "--seed") {
        o.seed = std::stoull(value);
      } else if (arg == "--seconds") {
        o.seconds = std::stod(value);
      } else if (arg == "--trace") {
        if (value != "0" && value != "1") return usage("--trace takes 0 or 1");
        o.trace = value == "1";
      } else {
        return usage(("unknown argument " + arg).c_str());
      }
    }
  } catch (const std::exception&) {
    return usage("malformed number");
  }
  if (!(o.seconds > 0)) return usage("--seconds must be positive");

  perfbench::Report report;
  try {
    report = perfbench::run(o);
  } catch (const std::invalid_argument& e) {
    return usage(e.what());
  }
  for (const std::string& problem : report.problems) {
    std::fprintf(stderr, "perfbench_query: %s\n", problem.c_str());
  }
  std::printf("{\"context\":%s}\n{\"exact\":%s}\n%s\n", report.context_json.c_str(),
              report.exact_json.c_str(), perfbench::result_json(report).c_str());
  return report.correct ? 0 : 1;
}
