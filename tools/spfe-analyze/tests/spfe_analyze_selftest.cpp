// Self-test for tools/spfe-analyze: runs the built binary against the
// fixture files and checks the exit status (0 clean / 1 findings /
// 2 config error) and, for the SPFE_CT region check, the findings it
// prints. SPFE_ANALYZE_BIN and SPFE_ANALYZE_FIXTURES are injected by
// CMake. The fixtures are the executable specification of the analyzer:
// each seeded violation class must fail, each sanctioned idiom must pass.
#include <gtest/gtest.h>

#include <sys/wait.h>

#include <cstdio>
#include <sstream>
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

// Exit status of `spfe-analyze <extra-args> <fixture>`; its stdout and
// stderr go to `output` when given. Fixture paths are reported relative
// to the fixture dir so baseline/audit JSON files can name them stably.
int run_analyze(const std::string& fixture, const std::string& extra = "",
                std::string* output = nullptr) {
  std::string cmd = kBin + " --strip-prefix " + kFixtures + "/";
  if (!extra.empty()) cmd += " " + extra;
  cmd += " " + kFixtures + "/" + fixture + " 2>&1";
  FILE* pipe = popen(cmd.c_str(), "r");
  if (pipe == nullptr) return -1;
  char buf[4096];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof(buf), pipe)) > 0) {
    if (output != nullptr) output->append(buf, n);
  }
  const int status = pclose(pipe);
  return status != -1 && WIFEXITED(status) ? WEXITSTATUS(status) : -1;
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

// ---- pass 1: SPFE_CT regions (the constant-time lint) ----------------------
//
// The whole-tree taint check alone rejects most of these fixtures, so each
// one must fail with a finding from the region check itself.

// True when `out` holds a `[ct-region]` line reported against `file`.
bool has_region_finding(const std::string& out, const std::string& file) {
  std::istringstream lines(out);
  for (std::string line; std::getline(lines, line);) {
    if (line.rfind(file + ":", 0) == 0 && line.find("[ct-region]") != std::string::npos) {
      return true;
    }
  }
  return false;
}

void expect_region_finding(const std::string& fixture) {
  std::string out;
  EXPECT_EQ(run_analyze(fixture, "", &out), 1) << out;
  EXPECT_TRUE(has_region_finding(out, fixture)) << out;
}

TEST(CtLintSelfTest, CleanRegionPasses) {
  std::string out;
  EXPECT_EQ(run_analyze("ct_clean.cpp", "", &out), 0) << out;
  EXPECT_EQ(out.find("[ct-region]"), std::string::npos) << out;
}

TEST(CtLintSelfTest, SecretDependentBranchFails) { expect_region_finding("ct_branch.cpp"); }

TEST(CtLintSelfTest, SecretDependentTernaryFails) { expect_region_finding("ct_ternary.cpp"); }

TEST(CtLintSelfTest, SecretIndexedSubscriptFails) {
  expect_region_finding("ct_subscript.cpp");
}

TEST(CtLintSelfTest, SecretDivisionFails) { expect_region_finding("ct_div.cpp"); }

TEST(CtLintSelfTest, ShortCircuitOnSecretFails) {
  expect_region_finding("ct_shortcircuit.cpp");
}

TEST(CtLintSelfTest, NonWhitelistedCallFails) { expect_region_finding("ct_call.cpp"); }

// The one moved fixture that the whole-tree check passes: only the region
// check reports an unterminated region.
TEST(CtLintSelfTest, UnclosedRegionFails) { expect_region_finding("ct_unclosed.cpp"); }

// A mont_mul-shaped kernel with a seeded secret-dependent zero-limb skip.
TEST(CtLintSelfTest, SeededMontMulBranchFails) {
  expect_region_finding("ct_seeded_mont_mul.cpp");
}

// The fixed-base comb evaluation with a seeded secret-indexed table
// lookup (the real kernel's masked-scan shape, minus the masking).
TEST(CtLintSelfTest, SeededFbTablePowIndexFails) {
  expect_region_finding("ct_seeded_fbtable_pow.cpp");
}

TEST(CtLintSelfTest, RangeForSecretIndexFails) { expect_region_finding("ct_range_for.cpp"); }

// `limbs()` of a secret is a tainted use (audited, not structural): the
// exponent-limb reads in mont_pow, multiexp_digit_at and fbtable_pow need it.
TEST(CtLintSelfTest, SecretLimbBranchFails) { expect_region_finding("ct_limbs.cpp"); }

// No whole-tree exemption applies inside a region: not the encrypt*
// sanitizers, and not in-tree helpers.
TEST(CtLintSelfTest, EncryptInsideRegionFails) { expect_region_finding("ct_encrypt.cpp"); }

TEST(CtLintSelfTest, InTreeHelperInsideRegionFails) {
  expect_region_finding("ct_intree.cpp");
}

// Whole fixture directory: the scan fails, and the directory walk reaches
// every region fixture: each bad one has its own region finding, the
// clean one none.
TEST(CtLintSelfTest, FixtureDirectoryFails) {
  std::string out;
  EXPECT_EQ(run_analyze("", "", &out), 1) << out;
  for (const char* bad :
       {"ct_branch.cpp", "ct_ternary.cpp", "ct_subscript.cpp", "ct_div.cpp",
        "ct_shortcircuit.cpp", "ct_call.cpp", "ct_unclosed.cpp", "ct_seeded_mont_mul.cpp",
        "ct_seeded_fbtable_pow.cpp", "ct_range_for.cpp", "ct_limbs.cpp", "ct_encrypt.cpp",
        "ct_intree.cpp"}) {
    EXPECT_TRUE(has_region_finding(out, bad)) << bad;
  }
  EXPECT_FALSE(has_region_finding(out, "ct_clean.cpp")) << out;
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

// deser_bounded.cpp analyzes clean, so its one suppression matches
// nothing: a stale entry fails the run instead of lingering.
TEST(SpfeAnalyzeSelfTest, BaselineStaleSuppressionFails) {
  std::string out;
  EXPECT_EQ(run_analyze("deser_bounded.cpp",
                        "--baseline " + kFixtures + "/baseline_stale.json", &out),
            1);
  EXPECT_NE(out.find("[baseline-stale]"), std::string::npos) << out;
}

TEST(SpfeAnalyzeSelfTest, BaselineCtRegionIsConfigError) {
  EXPECT_EQ(run_analyze("ct_branch.cpp",
                        "--baseline " + kFixtures + "/baseline_ct_region.json"),
            2);
}

// Whole fixture directory: .cpp fixtures only (the JSON companions are
// not C++ sources); the seeded violations dominate, so the scan fails.
TEST(SpfeAnalyzeSelfTest, FixtureDirectoryFails) { EXPECT_EQ(run_analyze(""), 1); }

}  // namespace
