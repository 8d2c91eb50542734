// Self-test of the query benchmark at tiny sizes.
//
// For every workload it runs an untraced invocation twice and a traced one
// at one seed, then checks:
//   * every emitted line parses with the strict JSON parser;
//   * the result line has exactly the keys correct/attempted/failed/metrics,
//     every query passed, and every metric name matches [A-Za-z0-9_.-]+;
//   * the metric names and units are exactly BENCHMARK.json's end_to_end
//     (untraced) or per_layer (traced) lists, and end-to-end values are > 0;
//   * the exact figures repeat across the two untraced runs and the traced
//     one;
//   * layer metrics read zero where a workload bypasses the layer.
//
//   perfbench_selftest [path/to/BENCHMARK.json]
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <regex>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/minijson.h"
#include "querybench.h"

#ifndef PERFBENCH_SPEC
#define PERFBENCH_SPEC "BENCHMARK.json"
#endif

namespace {

namespace json = spfe::tools::json;

int g_failures = 0;

void expect(bool ok, const std::string& what) {
  if (!ok) {
    std::fprintf(stderr, "FAIL: %s\n", what.c_str());
    ++g_failures;
  }
}

// name -> unit, in BENCHMARK.json order.
using MetricSpec = std::vector<std::pair<std::string, std::string>>;

MetricSpec read_spec(const json::Value& doc, const std::string& key) {
  MetricSpec out;
  const json::Value* list = doc.find(key);
  if (list == nullptr || !list->is_array()) throw std::runtime_error("spec lacks " + key);
  for (const json::Value& m : list->array) out.emplace_back(m.str_or("name", ""), m.str_or("unit", ""));
  return out;
}

// Parses the result line and checks its shape; returns name -> value.
std::map<std::string, double> check_result(const std::string& line, const MetricSpec& spec,
                                           const std::string& tag) {
  static const std::regex kName("[A-Za-z0-9_.-]+");
  std::map<std::string, double> values;
  json::Value doc;
  try {
    doc = json::parse(line);
  } catch (const std::exception& e) {
    expect(false, tag + ": result line does not parse: " + e.what());
    return values;
  }
  expect(doc.is_object() && doc.object.size() == 4, tag + ": result must have exactly 4 keys");
  const json::Value* correct = doc.find("correct");
  const json::Value* attempted = doc.find("attempted");
  const json::Value* failed = doc.find("failed");
  const json::Value* metrics = doc.find("metrics");
  expect(correct != nullptr && correct->kind == json::Value::Kind::kBool && correct->boolean,
         tag + ": correct must be true");
  expect(attempted != nullptr && attempted->is_number() && attempted->number >= 1 &&
             attempted->number == std::floor(attempted->number),
         tag + ": attempted must be a whole number >= 1");
  expect(failed != nullptr && failed->is_number() && failed->number == 0,
         tag + ": failed must be 0");
  if (metrics == nullptr || !metrics->is_object()) {
    expect(false, tag + ": metrics must be an object");
    return values;
  }
  MetricSpec emitted;
  for (const auto& [name, m] : metrics->object) {
    expect(std::regex_match(name, kName), tag + ": bad metric name '" + name + "'");
    const json::Value* value = m.find("value");
    expect(m.is_object() && m.object.size() == 2 && value != nullptr && value->is_number() &&
               std::isfinite(value->number),
           tag + ": metric " + name + " needs a finite value and a unit");
    emitted.emplace_back(name, m.str_or("unit", ""));
    if (value != nullptr) values[name] = value->number;
  }
  expect(emitted == spec, tag + ": metric names/units differ from BENCHMARK.json");
  return values;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

}  // namespace

int main(int argc, char** argv) {
  const std::string spec_path = argc > 1 ? argv[1] : PERFBENCH_SPEC;
  const json::Value spec = json::parse(read_file(spec_path));
  const MetricSpec end_to_end = read_spec(spec, "end_to_end");
  const MetricSpec per_layer = read_spec(spec, "per_layer");

  for (const std::string& workload : perfbench::workload_names()) {
    perfbench::Options o;
    o.workload = workload;
    o.seed = 7;
    o.seconds = 0.2;
    o.tiny = true;

    std::vector<std::string> exact;
    std::map<std::string, double> layer;
    for (const int trace : {0, 0, 1}) {
      o.trace = trace == 1;
      const std::string tag = workload + (o.trace ? " traced" : " untraced");
      const perfbench::Report report = perfbench::run(o);
      for (const std::string& p : report.problems) expect(false, tag + ": " + p);
      for (const std::string* line : {&report.context_json, &report.exact_json}) {
        try {
          expect(json::parse(*line).is_object(), tag + ": context/exact must be objects");
        } catch (const std::exception& e) {
          expect(false, tag + ": context/exact line does not parse: " + e.what());
        }
      }
      const auto values =
          check_result(perfbench::result_json(report), o.trace ? per_layer : end_to_end, tag);
      if (o.trace) {
        layer = values;
      } else {
        for (const auto& [name, v] : values) expect(v > 0, tag + ": " + name + " must be > 0");
      }
      exact.push_back(report.exact_json);
    }
    expect(exact[0] == exact[1], workload + ": exact figures differ between runs at one seed");
    expect(exact[0] == exact[2], workload + ": exact figures differ traced vs untraced");

    // Layers a workload bypasses read zero; the ones it runs do not.
    const bool robust = workload == "stats-kserver-robust";
    expect((layer["pir.answer_ms"] == 0) == robust, workload + ": pir.answer_ms");
    expect((layer["bignum.modexp"] == 0) == robust, workload + ": bignum.modexp");
    expect((layer["virtual_us_p50"] > 0) == robust, workload + ": virtual_us_p50");
    expect((layer["field.bw_decodes"] > 0) == robust, workload + ": field.bw_decodes");
    expect((layer["mpc.garbled_gates"] > 0) == (workload == "table1-boolean"),
           workload + ": mpc.garbled_gates");
    expect((layer["he.pool_hit_ratio"] == 1.0) == (workload == "stats-1server"),
           workload + ": he.pool_hit_ratio");
    expect(layer["net.server_ms"] > 0, workload + ": net.server_ms");
    std::printf("%-22s ok\n", workload.c_str());
  }
  if (g_failures != 0) {
    std::printf("perfbench self-test: %d failure(s)\n", g_failures);
    return 1;
  }
  std::printf("perfbench self-test: all checks passed\n");
  return 0;
}
