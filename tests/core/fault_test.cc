#include "core/fault.h"

#include <gtest/gtest.h>

#include <vector>

namespace dimqr {
namespace {

/// Restores a clean global registry around each test: the registry is
/// process-wide state and other suites expect it empty.
class FaultTest : public ::testing::Test {
 protected:
  void SetUp() override { FaultRegistry::Global().Clear(); }
  void TearDown() override { FaultRegistry::Global().Clear(); }
};

TEST_F(FaultTest, InactiveByDefault) {
  EXPECT_FALSE(FaultRegistry::Global().Active());
  FaultDecision d = FAULT_POINT("test.inactive").Evaluate(123, 0);
  EXPECT_FALSE(d.Fires());
  EXPECT_EQ(d.kind, FaultKind::kNone);
}

TEST_F(FaultTest, ConfigureParsesEntries) {
  ASSERT_TRUE(FaultRegistry::Global()
                  .Configure("a:0.5:transient,b:1:permanent:3")
                  .ok());
  EXPECT_TRUE(FaultRegistry::Global().Active());
  std::vector<std::string> sites = FaultRegistry::Global().ConfiguredSites();
  ASSERT_EQ(sites.size(), 2u);
  EXPECT_EQ(sites[0], "a");
  EXPECT_EQ(sites[1], "b");
}

TEST_F(FaultTest, ConfigureRejectsMalformedSpecsAtomically) {
  ASSERT_TRUE(FaultRegistry::Global().Configure("a:1:permanent").ok());
  // Each bad spec must leave the previous configuration untouched.
  const char* bad[] = {
      "a",                    // too few fields
      "a:1:permanent:2:9",    // too many fields
      ":1:permanent",         // empty site
      "a:2:permanent",        // probability out of range
      "a:x:permanent",        // probability not a number
      "a:1:flaky",            // unknown kind
      "a:1:transient:0",      // after_n must be >= 1
      "a:1:transient:nope",   // after_n not a number
      "a:1:sigkill",          // unknown kind
      "a:1:exit",             // unknown kind
  };
  for (const char* spec : bad) {
    Status st = FaultRegistry::Global().Configure(spec);
    EXPECT_FALSE(st.ok()) << spec;
    EXPECT_EQ(st.code(), StatusCode::kParseError) << spec;
    EXPECT_TRUE(FaultRegistry::Global().Active()) << spec;
    EXPECT_EQ(FaultRegistry::Global().ConfiguredSites().size(), 1u) << spec;
  }
}

TEST_F(FaultTest, EnvSpecParseErrorIsFatal) {
  // The environment path must not degrade to a warning: a chaos run whose
  // DIMQR_FAULTS was silently dropped would pass as a clean run.
  EXPECT_DEATH(
      FaultRegistry::Global().ApplyEnvSpecOrDie("lm.answer_choice:0.2"),
      "invalid DIMQR_FAULTS");
  EXPECT_DEATH(FaultRegistry::Global().ApplyEnvSpecOrDie("a:1:flaky"),
               "unknown fault kind");
}

TEST_F(FaultTest, EnvSpecAppliesValidSpecs) {
  FaultRegistry::Global().ApplyEnvSpecOrDie("a:0.5:transient");
  EXPECT_TRUE(FaultRegistry::Global().Active());
  FaultRegistry::Global().ApplyEnvSpecOrDie(nullptr);
  EXPECT_FALSE(FaultRegistry::Global().Active());
}

TEST_F(FaultTest, EmptySpecClears) {
  ASSERT_TRUE(FaultRegistry::Global().Configure("a:1:permanent").ok());
  ASSERT_TRUE(FaultRegistry::Global().Configure("").ok());
  EXPECT_FALSE(FaultRegistry::Global().Active());
}

TEST_F(FaultTest, DecisionIsPureInSeedAndAttempt) {
  ASSERT_TRUE(FaultRegistry::Global().Configure("site:0.5:transient").ok());
  const FaultRegistry& registry = FaultRegistry::Global();
  for (std::uint64_t seed = 0; seed < 200; ++seed) {
    FaultDecision first = registry.Evaluate("site", seed, 0);
    for (int repeat = 0; repeat < 3; ++repeat) {
      FaultDecision again = registry.Evaluate("site", seed, 0);
      EXPECT_EQ(again.kind, first.kind) << seed;
    }
  }
}

TEST_F(FaultTest, ProbabilityDrivesAffectedFraction) {
  ASSERT_TRUE(FaultRegistry::Global().Configure("site:0.2:permanent").ok());
  int fired = 0;
  const int kTrials = 2000;
  for (int seed = 0; seed < kTrials; ++seed) {
    if (FaultRegistry::Global()
            .Evaluate("site", static_cast<std::uint64_t>(seed), 0)
            .Fires()) {
      ++fired;
    }
  }
  double rate = static_cast<double>(fired) / kTrials;
  EXPECT_GT(rate, 0.15);
  EXPECT_LT(rate, 0.25);
}

TEST_F(FaultTest, TransientRecoversAfterN) {
  // prob 1: every instance is affected; default after_n = 2.
  ASSERT_TRUE(FaultRegistry::Global().Configure("site:1:transient").ok());
  const FaultRegistry& registry = FaultRegistry::Global();
  EXPECT_EQ(registry.Evaluate("site", 7, 0).kind, FaultKind::kTransient);
  EXPECT_EQ(registry.Evaluate("site", 7, 1).kind, FaultKind::kTransient);
  EXPECT_EQ(registry.Evaluate("site", 7, 2).kind, FaultKind::kNone);
  EXPECT_EQ(registry.Evaluate("site", 7, 3).kind, FaultKind::kNone);
}

TEST_F(FaultTest, PermanentNeverRecovers) {
  ASSERT_TRUE(FaultRegistry::Global().Configure("site:1:permanent").ok());
  for (int attempt = 0; attempt < 8; ++attempt) {
    EXPECT_EQ(FaultRegistry::Global().Evaluate("site", 7, attempt).kind,
              FaultKind::kPermanent);
  }
}

TEST_F(FaultTest, LatencyTicksAreBoundedAndDeterministic) {
  ASSERT_TRUE(FaultRegistry::Global().Configure("site:1:latency:5").ok());
  for (std::uint64_t seed = 0; seed < 100; ++seed) {
    FaultDecision d = FaultRegistry::Global().Evaluate("site", seed, 0);
    ASSERT_EQ(d.kind, FaultKind::kLatency);
    EXPECT_GE(d.latency_ticks, 1);
    EXPECT_LE(d.latency_ticks, 5);
    FaultDecision again = FaultRegistry::Global().Evaluate("site", seed, 0);
    EXPECT_EQ(again.latency_ticks, d.latency_ticks);
  }
}

TEST_F(FaultTest, UnconfiguredSiteNeverFires) {
  ASSERT_TRUE(FaultRegistry::Global().Configure("other:1:permanent").ok());
  EXPECT_FALSE(FaultRegistry::Global().Evaluate("site", 1, 0).Fires());
}

TEST_F(FaultTest, FaultPointRegistersKnownSite) {
  (void)FAULT_POINT("test.known_site").Evaluate(1, 0);
  std::vector<std::string> sites = FaultRegistry::KnownSites();
  bool found = false;
  for (const std::string& s : sites) found = found || s == "test.known_site";
  EXPECT_TRUE(found);
}

TEST_F(FaultTest, KindNamesRoundTrip) {
  EXPECT_EQ(FaultKindToString(FaultKind::kNone), "none");
  EXPECT_EQ(FaultKindToString(FaultKind::kTransient), "transient");
  EXPECT_EQ(FaultKindToString(FaultKind::kPermanent), "permanent");
  EXPECT_EQ(FaultKindToString(FaultKind::kLatency), "latency");
  EXPECT_EQ(FaultKindToString(FaultKind::kGarbled), "garbled");
}

}  // namespace
}  // namespace dimqr
