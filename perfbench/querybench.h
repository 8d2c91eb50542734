// Closed-loop private-statistics query benchmark.
//
// One client issues one query at a time and waits for the answer before it
// sends the next (a closed loop with a single client). Every query's output
// is checked against a plaintext recomputation from the generated inputs.
//
// Workloads (inputs are derived from the seed only):
//   stats-1server         §4 mean+variance package over a census of salaries
//                         (single-server cPIR + Paillier, pooled client).
//   stats-kserver-robust  §4 mean/variance over the robust k-server sum, on a
//                         virtual-time network with one consistent liar.
//   table1-boolean        Table 1 §3.3.2 v1: poly-mask input selection + Yao
//                         over an equality-count circuit.
//
// An untraced invocation reports the end-to-end metrics; a traced one
// (trace = true) reports the per-layer breakdown from obs spans, op counters
// and a role-splitting network wrapper, after also running an untraced pass
// that its exact figures are checked against.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  // Self-test sizes: small databases and keys, a few queries.
  bool tiny = false;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Report {
  bool correct = false;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  // One-line JSON objects printed ahead of the result line.
  std::string context_json;  // host, build, sizes, seed, sample counts
  std::string exact_json;    // figures that must repeat exactly at one seed
  // Why `correct` is false (empty when it is true).
  std::vector<std::string> problems;
};

const std::vector<std::string>& workload_names();

// Runs one invocation. Throws std::invalid_argument on an unknown workload.
Report run(const Options& options);

// The result line: {"correct", "attempted", "failed", "metrics"}.
std::string result_json(const Report& report);

}  // namespace perfbench
