// Self-test for tools/spfe-analyze: runs the built binary against the
// fixture files and checks the exit status (0 clean / 1 findings /
// 2 config error). SPFE_ANALYZE_BIN and SPFE_ANALYZE_FIXTURES are
// injected by CMake. The fixtures are the executable specification of
// the analyzer: each seeded violation class must fail, each sanctioned
// idiom must pass.
#include <gtest/gtest.h>

#include <cstdlib>
#include <string>

namespace {

#ifndef SPFE_ANALYZE_BIN
#error "SPFE_ANALYZE_BIN must be defined by the build"
#endif
#ifndef SPFE_ANALYZE_FIXTURES
#error "SPFE_ANALYZE_FIXTURES must be defined by the build"
#endif

const std::string kBin = SPFE_ANALYZE_BIN;
const std::string kFixtures = SPFE_ANALYZE_FIXTURES;

// Exit status of `spfe-analyze <extra-args> <fixture>` (output
// suppressed). Fixture paths are reported relative to the fixture dir so
// baseline/audit JSON files can name them stably.
int run_analyze(const std::string& fixture, const std::string& extra = "") {
  std::string cmd = kBin + " --strip-prefix " + kFixtures + "/";
  if (!extra.empty()) cmd += " " + extra;
  cmd += " " + kFixtures + "/" + fixture + " > /dev/null 2>&1";
  const int status = std::system(cmd.c_str());
  if (status == -1) return -1;
#if defined(WIFEXITED)
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
#else
  return status;
#endif
}

// ---- pass 1: interprocedural taint ----------------------------------------

TEST(SpfeAnalyzeSelfTest, InterprocOneHopFails) {
  EXPECT_EQ(run_analyze("interproc_one_hop.cpp"), 1);
}

TEST(SpfeAnalyzeSelfTest, InterprocTwoHopFails) {
  EXPECT_EQ(run_analyze("interproc_two_hop.cpp"), 1);
}

TEST(SpfeAnalyzeSelfTest, TaintedReturnFails) {
  EXPECT_EQ(run_analyze("tainted_return.cpp"), 1);
}

TEST(SpfeAnalyzeSelfTest, RangeForLoopVariableFails) {
  EXPECT_EQ(run_analyze("range_for_taint.cpp"), 1);
}

TEST(SpfeAnalyzeSelfTest, RangeForStructuredBindingFails) {
  EXPECT_EQ(run_analyze("range_for_binding_taint.cpp"), 1);
}

TEST(SpfeAnalyzeSelfTest, CtWhitelistedCalleeClean) {
  EXPECT_EQ(run_analyze("ct_callee_clean.cpp"), 0);
}

TEST(SpfeAnalyzeSelfTest, EncryptSanitizerClean) {
  EXPECT_EQ(run_analyze("sanitizer_clean.cpp"), 0);
}

// ---- pass 2: declassification audit ---------------------------------------

TEST(SpfeAnalyzeSelfTest, DeclassifyUnjustifiedFails) {
  EXPECT_EQ(run_analyze("declassify_unjustified.cpp"), 1);
}

TEST(SpfeAnalyzeSelfTest, DeclassifyJustifiedClean) {
  EXPECT_EQ(run_analyze("declassify_justified.cpp"), 0);
}

TEST(SpfeAnalyzeSelfTest, DeclassifyAuditMatchClean) {
  EXPECT_EQ(run_analyze("declassify_justified.cpp",
                        "--audit " + kFixtures + "/audit_ok.json"),
            0);
}

TEST(SpfeAnalyzeSelfTest, DeclassifyAuditMismatchFails) {
  EXPECT_EQ(run_analyze("declassify_justified.cpp",
                        "--audit " + kFixtures + "/audit_mismatch.json"),
            1);
}

// ---- pass 3: protocol hygiene ---------------------------------------------

TEST(SpfeAnalyzeSelfTest, DeserUnboundedCountFails) {
  EXPECT_EQ(run_analyze("deser_unbounded.cpp"), 1);
}

TEST(SpfeAnalyzeSelfTest, DeserVarintCountClean) {
  EXPECT_EQ(run_analyze("deser_bounded.cpp"), 0);
}

TEST(SpfeAnalyzeSelfTest, DeserEqualityGuardClean) {
  EXPECT_EQ(run_analyze("deser_guarded.cpp"), 0);
}

TEST(SpfeAnalyzeSelfTest, UnmeteredSendFails) {
  EXPECT_EQ(run_analyze("unmetered_send.cpp"), 1);
}

TEST(SpfeAnalyzeSelfTest, NetInternalOutsideNetFails) {
  EXPECT_EQ(run_analyze("net_internal_outside.cpp"), 1);
}

TEST(SpfeAnalyzeSelfTest, WallClockOutsideNetFails) {
  EXPECT_EQ(run_analyze("wall_clock.cpp"), 1);
}

TEST(SpfeAnalyzeSelfTest, VirtualClockClean) {
  EXPECT_EQ(run_analyze("wall_clock_clean.cpp"), 0);
}

// ---- baseline handling -----------------------------------------------------

TEST(SpfeAnalyzeSelfTest, BaselineSuppressionClean) {
  EXPECT_EQ(run_analyze("deser_unbounded.cpp",
                        "--baseline " + kFixtures + "/baseline_ok.json"),
            0);
}

TEST(SpfeAnalyzeSelfTest, BaselineWithoutReasonIsConfigError) {
  EXPECT_EQ(run_analyze("deser_unbounded.cpp",
                        "--baseline " + kFixtures + "/baseline_noreason.json"),
            2);
}

// Whole fixture directory: .cpp fixtures only (the JSON companions are
// not C++ sources); the seeded violations dominate, so the scan fails.
TEST(SpfeAnalyzeSelfTest, FixtureDirectoryFails) { EXPECT_EQ(run_analyze(""), 1); }

}  // namespace
