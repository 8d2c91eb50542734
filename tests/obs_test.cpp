// Unit tests for the observability layer (src/obs): counter semantics,
// span nesting and counter snapshots, the root-vs-global consistency
// invariant, and strict validity of the chrome://tracing export.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "common/minijson.h"
#include "obs/obs.h"

namespace spfe::obs {
namespace {

namespace minijson = spfe::tools::json;

// Every test runs with a clean, disabled tracer and leaves it that way:
// tracing state is process-global, and leaking an enabled tracer would
// perturb every later test in the binary.
class ObsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Tracer::global().set_enabled(false);
    Tracer::global().reset();
  }
  void TearDown() override {
    Tracer::global().set_enabled(false);
    Tracer::global().reset();
  }
};

TEST_F(ObsTest, DisabledByDefaultNothingRecorded) {
  EXPECT_FALSE(enabled());
  count(Op::kModExp, 100);
  {
    SPFE_OBS_SPAN("should-not-record");
  }
  const OpCounts totals = Tracer::global().totals();
  for (const std::uint64_t c : totals) EXPECT_EQ(c, 0u);
  EXPECT_TRUE(Tracer::global().spans().empty());
}

TEST_F(ObsTest, CountersAccumulateAndReset) {
  Tracer::global().set_enabled(true);
  count(Op::kModExp);
  count(Op::kModExp, 4);
  count(Op::kPaillierDecrypt, 2);
  OpCounts totals = Tracer::global().totals();
  EXPECT_EQ(totals[static_cast<std::size_t>(Op::kModExp)], 5u);
  EXPECT_EQ(totals[static_cast<std::size_t>(Op::kPaillierDecrypt)], 2u);
  EXPECT_EQ(totals[static_cast<std::size_t>(Op::kGarbledGates)], 0u);
  Tracer::global().reset();
  totals = Tracer::global().totals();
  for (const std::uint64_t c : totals) EXPECT_EQ(c, 0u);
}

TEST_F(ObsTest, SpansNestAndSnapshotCounters) {
  Tracer::global().set_enabled(true);
  {
    Span outer("outer");
    count(Op::kModExp, 10);
    {
      Span inner("inner");
      inner.note("phase=fold");
      count(Op::kModExp, 7);
      count(Op::kBwDecode, 1);
    }
    count(Op::kModExp, 3);
  }
  const auto spans = Tracer::global().spans();
  ASSERT_EQ(spans.size(), 2u);
  const SpanRecord& outer = spans[0];
  const SpanRecord& inner = spans[1];
  EXPECT_EQ(outer.name, "outer");
  EXPECT_EQ(outer.parent, SpanRecord::kNoParent);
  EXPECT_EQ(outer.depth, 0u);
  EXPECT_EQ(inner.name, "inner");
  EXPECT_EQ(inner.parent, outer.id);
  EXPECT_EQ(inner.depth, 1u);
  EXPECT_EQ(inner.note, "phase=fold");
  EXPECT_FALSE(outer.open());
  EXPECT_FALSE(inner.open());
  // The outer delta includes the inner span's ops; the inner only its own.
  EXPECT_EQ(outer.delta()[static_cast<std::size_t>(Op::kModExp)], 20u);
  EXPECT_EQ(inner.delta()[static_cast<std::size_t>(Op::kModExp)], 7u);
  EXPECT_EQ(inner.delta()[static_cast<std::size_t>(Op::kBwDecode)], 1u);
  // Closed spans always report a nonzero duration.
  EXPECT_GT(outer.duration_ns(), 0u);
  EXPECT_GT(inner.duration_ns(), 0u);
}

TEST_F(ObsTest, NotesJoinWithSemicolons) {
  Tracer::global().set_enabled(true);
  {
    Span s("annotated");
    s.note("a=1");
    s.note("b=2");
  }
  const auto spans = Tracer::global().spans();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].note, "a=1;b=2");
}

TEST_F(ObsTest, RootTotalsMatchGlobalWhenAllOpsAreSpanned) {
  Tracer::global().set_enabled(true);
  {
    Span root1("r1");
    count(Op::kPaillierEncrypt, 8);
  }
  {
    Span root2("r2");
    count(Op::kPaillierEncrypt, 2);
    count(Op::kOtBase, 5);
  }
  const OpCounts roots = Tracer::global().root_totals();
  const OpCounts totals = Tracer::global().totals();
  for (std::size_t i = 0; i < kNumOps; ++i) EXPECT_EQ(roots[i], totals[i]) << i;
}

TEST_F(ObsTest, RootTotalsExposeOpsOutsideAnySpan) {
  // An op counted outside every span makes root_totals() < totals() — the
  // inconsistency bench_table1's summary reports (and its exit code gates).
  Tracer::global().set_enabled(true);
  {
    Span root("r");
    count(Op::kModExp, 3);
  }
  count(Op::kModExp, 2);  // unspanned
  const std::size_t op = static_cast<std::size_t>(Op::kModExp);
  EXPECT_EQ(Tracer::global().root_totals()[op], 3u);
  EXPECT_EQ(Tracer::global().totals()[op], 5u);
}

TEST_F(ObsTest, SummaryAggregatesByNameInFirstSeenOrder) {
  Tracer::global().set_enabled(true);
  for (int i = 0; i < 3; ++i) {
    Span s("repeat");
    count(Op::kGmEncrypt, 2);
  }
  {
    Span s("once");
    count(Op::kGmDecrypt, 1);
  }
  const auto rows = Tracer::global().summary();
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0].name, "repeat");
  EXPECT_EQ(rows[0].calls, 3u);
  EXPECT_EQ(rows[0].ops[static_cast<std::size_t>(Op::kGmEncrypt)], 6u);
  EXPECT_GT(rows[0].total_ns, 0u);
  EXPECT_EQ(rows[1].name, "once");
  EXPECT_EQ(rows[1].calls, 1u);
}

TEST_F(ObsTest, OpNamesAreUniqueAndKnown) {
  for (std::size_t i = 0; i < kNumOps; ++i) {
    const std::string name = op_name(static_cast<Op>(i));
    EXPECT_FALSE(name.empty());
    EXPECT_NE(name, "unknown") << i;
    for (std::size_t j = i + 1; j < kNumOps; ++j) {
      EXPECT_NE(name, op_name(static_cast<Op>(j))) << i << " vs " << j;
    }
  }
}

TEST_F(ObsTest, ChromeTraceJsonIsStrictlyValid) {
  Tracer::global().set_enabled(true);
  {
    Span root("phase \"quoted\"\n");  // hostile name: must be escaped
    root.note("k=v; path=C:\\tmp");
    count(Op::kModExp, 2);
    {
      Span child("child");
      count(Op::kOtExtended, 4);
    }
  }
  const std::string json = Tracer::global().chrome_trace_json();
  minijson::Value doc;
  ASSERT_NO_THROW(doc = minijson::parse(json)) << json;
  ASSERT_TRUE(doc.is_object());
  const minijson::Value* events = doc.find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());
  ASSERT_EQ(events->array.size(), 2u);
  for (const minijson::Value& ev : events->array) {
    ASSERT_TRUE(ev.is_object());
    ASSERT_NE(ev.find("name"), nullptr);
    ASSERT_NE(ev.find("ts"), nullptr);
    ASSERT_NE(ev.find("dur"), nullptr);
    const minijson::Value* ph = ev.find("ph");
    ASSERT_NE(ph, nullptr);
    EXPECT_EQ(ph->string, "X");
    ASSERT_NE(ev.find("args"), nullptr);
    ASSERT_NE(ev.find("args")->find("ops"), nullptr);
  }
  // Hostile characters survived the round trip.
  EXPECT_EQ(events->array[0].find("name")->string, "phase \"quoted\"\n");
  EXPECT_EQ(events->array[0].find("args")->find("note")->string, "k=v; path=C:\\tmp");
  // Per-event ops carry the recorded counts.
  const minijson::Value* root_ops = events->array[0].find("args")->find("ops");
  ASSERT_NE(root_ops->find("modexp"), nullptr);
  EXPECT_EQ(root_ops->find("modexp")->number, 2.0);
  EXPECT_EQ(root_ops->find("ot_extended")->number, 4.0);
}

TEST_F(ObsTest, OpenSpansAreExcludedFromExportAndSummary) {
  Tracer::global().set_enabled(true);
  Span still_open("unfinished");
  count(Op::kModExp, 1);
  const std::string json = Tracer::global().chrome_trace_json();
  const minijson::Value doc = minijson::parse(json);
  EXPECT_TRUE(doc.find("traceEvents")->array.empty());
  EXPECT_TRUE(Tracer::global().summary().empty());
  // spans() still exposes it, flagged open, for debugging.
  const auto spans = Tracer::global().spans();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_TRUE(spans[0].open());
}

TEST_F(ObsTest, WriteChromeTraceIsAtomicAndReportsFailure) {
  Tracer::global().set_enabled(true);
  {
    Span s("persisted");
    count(Op::kGarbledGates, 9);
  }
  const std::string path = ::testing::TempDir() + "obs_test_trace.json";
  ASSERT_TRUE(Tracer::global().write_chrome_trace(path));
  // No temp file left behind; the final file parses strictly.
  std::FILE* tmp = std::fopen((path + ".tmp").c_str(), "rb");
  EXPECT_EQ(tmp, nullptr);
  if (tmp != nullptr) std::fclose(tmp);
  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  std::string content;
  char buf[4096];
  std::size_t got = 0;
  while ((got = std::fread(buf, 1, sizeof buf, f)) > 0) content.append(buf, got);
  std::fclose(f);
  std::remove(path.c_str());
  const minijson::Value doc = minijson::parse(content);
  EXPECT_EQ(doc.find("traceEvents")->array.size(), 1u);
  // Unwritable destination: clean failure, no throw.
  EXPECT_FALSE(Tracer::global().write_chrome_trace("/nonexistent-dir/trace.json"));
}

TEST_F(ObsTest, ResetClearsSpansAndEpoch) {
  Tracer::global().set_enabled(true);
  {
    Span s("before-reset");
    count(Op::kModExp, 1);
  }
  Tracer::global().reset();
  EXPECT_TRUE(Tracer::global().spans().empty());
  for (const std::uint64_t c : Tracer::global().totals()) EXPECT_EQ(c, 0u);
  {
    Span s("after-reset");
  }
  const auto spans = Tracer::global().spans();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].name, "after-reset");
  EXPECT_EQ(spans[0].parent, SpanRecord::kNoParent);
}

}  // namespace
}  // namespace spfe::obs
