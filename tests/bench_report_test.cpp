// Regression tests for the bench JSON report (bench/bench_util.h): the
// BENCH_*.json artifacts are parsed by strict JSON consumers in CI, so every
// document JsonReport emits must survive a strict parser — including rows
// with NaN/inf timings (emitted as null, never as bare `nan`) and operation
// names containing JSON metacharacters. write() must be atomic and report
// I/O failure instead of leaving a truncated artifact.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <string>

#include "bench_util.h"
#include "common/minijson.h"

namespace spfe::bench {
namespace {

namespace minijson = spfe::tools::json;

std::string read_file(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  EXPECT_NE(f, nullptr) << path;
  if (f == nullptr) return {};
  std::string content;
  char buf[4096];
  std::size_t got = 0;
  while ((got = std::fread(buf, 1, sizeof buf, f)) > 0) content.append(buf, got);
  std::fclose(f);
  return content;
}

TEST(JsonReport, RoundTripsThroughStrictParser) {
  JsonReport report("roundtrip");
  report.add("paillier_encrypt", 512, 1234.5, 128);
  report.add("modexp", 2048, 0.4, 0);
  const minijson::Value doc = minijson::parse(report.to_json());
  ASSERT_TRUE(doc.is_array());
  ASSERT_EQ(doc.array.size(), 2u);
  EXPECT_EQ(doc.array[0].find("op")->string, "paillier_encrypt");
  EXPECT_EQ(doc.array[0].find("size")->number, 512.0);
  EXPECT_DOUBLE_EQ(doc.array[0].find("ns_per_op")->number, 1234.5);
  EXPECT_EQ(doc.array[0].find("bytes")->number, 128.0);
  EXPECT_DOUBLE_EQ(doc.array[1].find("ns_per_op")->number, 0.4);
}

TEST(JsonReport, EmptyReportIsValidEmptyArray) {
  const minijson::Value doc = minijson::parse(JsonReport("empty").to_json());
  ASSERT_TRUE(doc.is_array());
  EXPECT_TRUE(doc.array.empty());
}

TEST(JsonReport, NanAndInfTimingsBecomeNull) {
  // A zero-iteration bench row divides by zero; "%.1f" of the result prints
  // "nan"/"inf"/"-inf", none of which is a JSON token. The report must emit
  // null so strict consumers keep parsing.
  JsonReport report("nonfinite");
  report.add("nan_row", 1, std::nan(""), 0);
  report.add("inf_row", 2, std::numeric_limits<double>::infinity(), 0);
  report.add("neg_inf_row", 3, -std::numeric_limits<double>::infinity(), 4);
  report.add("ok_row", 4, 7.5, 8);
  const std::string json = report.to_json();
  minijson::Value doc;
  ASSERT_NO_THROW(doc = minijson::parse(json)) << json;
  ASSERT_EQ(doc.array.size(), 4u);
  EXPECT_TRUE(doc.array[0].find("ns_per_op")->is_null());
  EXPECT_TRUE(doc.array[1].find("ns_per_op")->is_null());
  EXPECT_TRUE(doc.array[2].find("ns_per_op")->is_null());
  EXPECT_DOUBLE_EQ(doc.array[3].find("ns_per_op")->number, 7.5);
  // Non-timing fields of a null row are intact.
  EXPECT_EQ(doc.array[0].find("size")->number, 1.0);
  EXPECT_EQ(doc.array[2].find("bytes")->number, 4.0);
}

TEST(JsonReport, OpNamesWithMetacharactersAreEscaped) {
  JsonReport report("escape");
  report.add("mul \"wide\"", 1, 1.0, 0);
  report.add("path\\kernel", 2, 2.0, 0);
  const std::string json = report.to_json();
  minijson::Value doc;
  ASSERT_NO_THROW(doc = minijson::parse(json)) << json;
  EXPECT_EQ(doc.array[0].find("op")->string, "mul \"wide\"");
  EXPECT_EQ(doc.array[1].find("op")->string, "path\\kernel");
}

TEST(JsonReport, WriteProducesParsableFileAtomically) {
  const std::string dir = ::testing::TempDir();
  ASSERT_EQ(setenv("SPFE_BENCH_JSON_DIR", dir.c_str(), 1), 0);
  JsonReport report("write_test");
  report.add("op_a", 10, 3.25, 16);
  report.add("nan_op", 20, std::nan(""), 0);
  EXPECT_TRUE(report.write());
  unsetenv("SPFE_BENCH_JSON_DIR");
  const std::string path = dir + "/BENCH_write_test.json";
  const std::string content = read_file(path);
  // Atomic: no temp file survives a successful write.
  std::FILE* tmp = std::fopen((path + ".tmp").c_str(), "rb");
  EXPECT_EQ(tmp, nullptr);
  if (tmp != nullptr) std::fclose(tmp);
  std::remove(path.c_str());
  minijson::Value doc;
  ASSERT_NO_THROW(doc = minijson::parse(content)) << content;
  ASSERT_EQ(doc.array.size(), 2u);
  EXPECT_EQ(doc.array[0].find("op")->string, "op_a");
  EXPECT_TRUE(doc.array[1].find("ns_per_op")->is_null());
}

TEST(JsonReport, WriteToUnwritableDirFailsCleanly) {
  ASSERT_EQ(setenv("SPFE_BENCH_JSON_DIR", "/nonexistent-bench-dir", 1), 0);
  JsonReport report("unwritable");
  report.add("op", 1, 1.0, 0);
  EXPECT_FALSE(report.write());
  unsetenv("SPFE_BENCH_JSON_DIR");
}

}  // namespace
}  // namespace spfe::bench
