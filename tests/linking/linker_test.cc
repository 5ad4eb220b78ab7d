#include "linking/linker.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <ostream>
#include <string>

namespace dimqr::linking {
namespace {

/// Shared linker: embedding training is the expensive part, do it once.
const UnitLinker& Linker() {
  static const std::shared_ptr<const UnitLinker> kLinker = [] {
    auto kb = kb::DimUnitKB::Build().ValueOrDie();
    return UnitLinker::Build(kb).ValueOrDie();
  }();
  return *kLinker;
}

/// Resolves Best()'s UnitId handle against the linker's own KB.
const kb::UnitRecord& BestUnit(const std::string& mention,
                               const std::string& context) {
  return Linker().knowledge_base().Get(
      Linker().Best(mention, context).ValueOrDie());
}

TEST(UnitLinkerTest, ExactSymbolLinks) {
  EXPECT_EQ(BestUnit("km", "the road is 5 km long").id, "KiloM");
}

TEST(UnitLinkerTest, ExactLabelLinks) {
  EXPECT_EQ(BestUnit("kilometre", "distance travelled").id, "KiloM");
}

TEST(UnitLinkerTest, AliasSpellingLinks) {
  // American spelling is an alias.
  EXPECT_EQ(BestUnit("kilometers", "the marathon distance").id, "KiloM");
}

TEST(UnitLinkerTest, PaperFig1DynPerCm) {
  // Fig. 1: "dyne/cm" must link to the force-per-length compound.
  const kb::UnitRecord& u =
      BestUnit("dyn/cm", "surface tension of the liquid");
  EXPECT_EQ(u.id, "DYN-PER-CentiM");
  EXPECT_EQ(u.dimension.ToFormula(), "MT-2");
}

TEST(UnitLinkerTest, FuzzyMisspellingLinks) {
  EXPECT_EQ(BestUnit("kilometr", "drove a long distance").id, "KiloM");
}

TEST(UnitLinkerTest, ChineseUnitLinks) {
  EXPECT_EQ(BestUnit("千克", "质量").id, "KiloGM");
}

TEST(UnitLinkerTest, NoCandidateForGarbage) {
  EXPECT_EQ(Linker().Best("xyzzyplugh", "no context").status().code(),
            StatusCode::kNotFound);
}

TEST(UnitLinkerTest, CandidatesSortedDescending) {
  std::vector<LinkCandidate> c = Linker().Link("m", "it is 5 m long");
  ASSERT_GT(c.size(), 1u);
  for (std::size_t i = 1; i < c.size(); ++i) {
    EXPECT_GE(c[i - 1].score, c[i].score);
  }
}

TEST(UnitLinkerTest, CandidateCountCapped) {
  std::vector<LinkCandidate> c = Linker().Link("m", "length");
  EXPECT_LE(c.size(), Linker().config().max_candidates);
}

TEST(UnitLinkerTest, PaperContextExampleDegree) {
  // Section III-B: "degree" in different contexts might correspond to
  // "degrees Celsius" or "diopter" (we check temperature vs angle).
  const kb::UnitRecord& temp = BestUnit(
      "degrees", "the weather was hot, the thermometer showed 30 degrees");
  const kb::UnitRecord& angle =
      BestUnit("degrees", "rotate the triangle by 30 degrees of turn");
  EXPECT_EQ(temp.quantity_kind, "ThermodynamicTemperature")
      << "temperature context should pick " << temp.id;
  EXPECT_EQ(angle.quantity_kind, "PlaneAngle") << angle.id;
}

TEST(UnitLinkerTest, ContextDisambiguatesPoundVsPoundForce) {
  EXPECT_EQ(BestUnit("pounds", "the baby weighs seven pounds").dimension,
            dims::Mass());
}

TEST(UnitLinkerTest, PriorPrefersCommonUnits) {
  // "m" matches metre, mile symbol? no — but also "M" molar and milli-
  // prefixed symbols fuzzily; the frequency prior should keep metre first.
  EXPECT_EQ(BestUnit("m", "it is long").id, "M");
}

TEST(UnitLinkerTest, FactorsExposedOnCandidates) {
  std::vector<LinkCandidate> c =
      Linker().Link("km", "the distance of the trip");
  ASSERT_FALSE(c.empty());
  const LinkCandidate& top = c.front();
  EXPECT_GT(top.pr_mention, 0.9);
  EXPECT_GT(top.pr_prior, 0.0);
  EXPECT_LE(top.pr_prior, 1.0);
  EXPECT_GE(top.pr_context, 0.0);
  EXPECT_LE(top.pr_context, 1.0);
  double gamma = Linker().config().mention_sharpness;
  EXPECT_NEAR(top.score,
              std::pow(top.pr_mention, gamma) * top.pr_prior * top.pr_context,
              1e-12);
}

TEST(UnitLinkerTest, AblationTogglesChangeScore) {
  auto kb = kb::DimUnitKB::Build().ValueOrDie();
  LinkerConfig no_context;
  no_context.use_context = false;
  no_context.corpus_sentences_per_cluster = 10;  // fast training
  auto linker = UnitLinker::Build(kb, no_context).ValueOrDie();
  std::vector<LinkCandidate> c = linker->Link("km", "distance");
  ASSERT_FALSE(c.empty());
  EXPECT_NEAR(c.front().score,
              std::pow(c.front().pr_mention, no_context.mention_sharpness) *
                  c.front().pr_prior,
              1e-12);
}

TEST(UnitLinkerTest, BuildRejectsNullKb) {
  EXPECT_FALSE(UnitLinker::Build(nullptr).ok());
}

/// Surface-form sweep: every form of a few everyday units should link home.
struct SurfaceCase {
  const char* mention;
  const char* context;
  const char* expected_id;
};

/// Printed next to each listed test instead of the raw struct bytes, whose
/// pointers change in every process.
void PrintTo(const SurfaceCase& c, std::ostream* os) { *os << c.mention; }

class LinkerSurfaceSweep : public ::testing::TestWithParam<SurfaceCase> {};

TEST_P(LinkerSurfaceSweep, LinksToExpectedUnit) {
  const SurfaceCase& c = GetParam();
  Result<UnitId> u = Linker().Best(c.mention, c.context);
  ASSERT_TRUE(u.ok()) << c.mention;
  EXPECT_EQ(Linker().knowledge_base().Get(*u).id, c.expected_id) << c.mention;
}

INSTANTIATE_TEST_SUITE_P(
    EverydayUnits, LinkerSurfaceSweep,
    ::testing::Values(
        SurfaceCase{"kg", "the bag weighs 5 kg", "KiloGM"},
        SurfaceCase{"hours", "the trip took 3 hours", "HR"},
        SurfaceCase{"mph", "", "MI-PER-HR"},  // alias check below may adjust
        SurfaceCase{"liters", "pour 2 liters of water", "LITRE"},
        SurfaceCase{"米", "长度是5米", "M"},
        SurfaceCase{"斤", "买了三斤苹果", "JIN_CN"},
        SurfaceCase{"ml", "add 250 ml of milk", "MilliLITRE"},
        SurfaceCase{"km/h", "the car drove fast", "KiloM-PER-HR"},
        SurfaceCase{"mmHg", "blood pressure reading", "MMHG"},
        SurfaceCase{"kWh", "the electricity bill", "KiloWH"}),
    [](const ::testing::TestParamInfo<SurfaceCase>& info) {
      // Named after the expected unit: "KiloM-PER-HR" -> "KiloM_PER_HR".
      std::string name = info.param.expected_id;
      std::replace(name.begin(), name.end(), '-', '_');
      return name;
    });

}  // namespace
}  // namespace dimqr::linking
