#include "kb/kb.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <ostream>
#include <span>
#include <string>
#include <unordered_set>

namespace dimqr::kb {
namespace {

/// One KB shared by all tests in this file (construction is expensive).
const DimUnitKB& Kb() {
  static const std::shared_ptr<const DimUnitKB> kKb =
      DimUnitKB::Build().ValueOrDie();
  return *kKb;
}

/// The record of a UnitID that must exist.
const UnitRecord& Rec(std::string_view id) {
  return Kb().Get(Kb().ResolveId(id).ValueOrDie());
}

TEST(DimUnitKBTest, BuildsWithoutErrors) {
  EXPECT_GT(Kb().units().size(), 0u);
  EXPECT_GT(Kb().kinds().size(), 0u);
}

TEST(DimUnitKBTest, ReachesTableIvScale) {
  // Table IV: DimUnitKB has 1778 units / 327 kinds / 175 dim vectors,
  // versus WolframAlpha's 540/173/63 and UoM's 76/16. The reproduction
  // must preserve the ordering DimUnitKB >> WolframAlpha >> UoM.
  KbStats stats = Kb().Stats();
  EXPECT_GT(stats.num_units, 1000u) << "should be well above WolframAlpha's 540";
  EXPECT_GT(stats.num_quantity_kinds, 173u) << "above WolframAlpha's 173";
  EXPECT_GT(stats.num_dimension_vectors, 63u) << "above WolframAlpha's 63";
}

TEST(DimUnitKBTest, UniqueIds) {
  std::unordered_set<std::string> ids;
  for (const UnitRecord& u : Kb().units()) {
    EXPECT_TRUE(ids.insert(std::string(u.id)).second) << "duplicate id " << u.id;
  }
}

TEST(DimUnitKBTest, EveryUnitHasLabelKindDimension) {
  for (const UnitRecord& u : Kb().units()) {
    EXPECT_FALSE(u.label_en.empty()) << u.id;
    EXPECT_FALSE(u.quantity_kind.empty()) << u.id;
    EXPECT_TRUE(Kb().FindKind(u.quantity_kind).ok())
        << u.id << " kind " << u.quantity_kind;
    EXPECT_NE(u.conversion_value, 0.0) << u.id;
    EXPECT_FALSE(u.description.empty()) << u.id;
  }
}

TEST(DimUnitKBTest, UnitDimensionMatchesKindDimension) {
  for (const UnitRecord& u : Kb().units()) {
    const QuantityKindRecord* kind = Kb().FindKind(u.quantity_kind).ValueOrDie();
    EXPECT_EQ(u.dimension, kind->dimension) << u.id;
  }
}

TEST(DimUnitKBTest, ExactConversionsAgreeWithDoubles) {
  for (const UnitRecord& u : Kb().units()) {
    if (!u.exact_conversion) continue;
    EXPECT_NEAR(u.exact_conversion->ToDouble(), u.conversion_value,
                1e-9 * std::abs(u.conversion_value))
        << u.id;
  }
}

TEST(DimUnitKBTest, FrequenciesInPaperRange) {
  // Eq. (2) maps scores to [delta, 1] with delta = 0.1.
  for (const UnitRecord& u : Kb().units()) {
    EXPECT_GE(u.frequency, 0.1) << u.id;
    EXPECT_LE(u.frequency, 1.0) << u.id;
  }
}

TEST(DimUnitKBTest, ResolveIdAndGet) {
  const UnitRecord& m = Rec("M");
  EXPECT_EQ(m.label_en, "metre");
  EXPECT_EQ(m.label_zh, "米");
  EXPECT_EQ(m.dimension, dims::Length());
  EXPECT_FALSE(Kb().ResolveId("NO_SUCH_UNIT").ok());
}

TEST(DimUnitKBTest, PrefixExpansionProducesKilometre) {
  const UnitRecord& km = Rec("KiloM");
  EXPECT_EQ(km.label_en, "kilometre");
  EXPECT_EQ(km.label_zh, "千米");
  EXPECT_EQ(km.origin, UnitOrigin::kPrefixExpanded);
  EXPECT_DOUBLE_EQ(km.conversion_value, 1000.0);
  ASSERT_TRUE(km.exact_conversion.has_value());
  EXPECT_EQ(*km.exact_conversion, Rational(1000));
  // Symbol composition: "k" + "m".
  ASSERT_FALSE(km.symbols.empty());
  EXPECT_EQ(km.symbols[0], "km");
  // Alias composition: "kilo" + "meter".
  bool has_kilometer = false;
  for (std::string_view a : km.aliases) {
    if (a == "kilometer") has_kilometer = true;
  }
  EXPECT_TRUE(has_kilometer);
}

TEST(DimUnitKBTest, PaperFig1UnitsPresent) {
  // Fig. 1 hinges on poundal (LMT-2) vs dyn/cm (MT-2).
  const UnitRecord& poundal = Rec("POUNDAL");
  EXPECT_EQ(poundal.dimension.ToFormula(), "LMT-2");
  const UnitRecord& dyn_cm = Rec("DYN-PER-CentiM");
  EXPECT_EQ(dyn_cm.dimension.ToFormula(), "MT-2");
  EXPECT_EQ(dyn_cm.dimension.ToVectorForm(), "A0E0L0I0M1H0T-2D0");
  EXPECT_FALSE(poundal.dimension.ComparableWith(dyn_cm.dimension));
}

TEST(DimUnitKBTest, PaperTableIGillPerHourPresent) {
  const UnitRecord& gill_h = Rec("GILL_US-PER-HR");
  EXPECT_EQ(gill_h.dimension.ToFormula(), "L3T-1");
  EXPECT_EQ(gill_h.quantity_kind, "VolumeFlowRate");
}

TEST(DimUnitKBTest, CompoundConversionIsExact) {
  // km/h -> m/s is exactly 5/18.
  const UnitRecord& kmh = Rec("KiloM-PER-HR");
  const UnitRecord& ms = Rec("M-PER-SEC");
  double factor =
      kmh.Semantics().ConversionFactorTo(ms.Semantics()).ValueOrDie();
  EXPECT_DOUBLE_EQ(factor, 5.0 / 18.0);
  ASSERT_TRUE(kmh.exact_conversion.has_value());
  EXPECT_EQ(*kmh.exact_conversion, Rational::Of(5, 18).ValueOrDie());
}

TEST(DimUnitKBTest, ConversionFactorByResolvedIds) {
  EXPECT_DOUBLE_EQ(
      Kb().ConversionFactor(Kb().IdOf("KiloM"), Kb().IdOf("M")).ValueOrDie(),
      1000.0);
  EXPECT_DOUBLE_EQ(
      Kb().ConversionFactor(Kb().IdOf("IN"), Kb().IdOf("CentiM")).ValueOrDie(),
      2.54);
  EXPECT_EQ(Kb().ConversionFactor(Kb().IdOf("KiloM"), Kb().IdOf("SEC"))
                .status()
                .code(),
            StatusCode::kDimensionMismatch);
}

TEST(DimUnitKBTest, FindBySurfaceExactAndCaseFallback) {
  std::span<const UnitId> exact = Kb().FindBySurface("km");
  ASSERT_FALSE(exact.empty());
  EXPECT_EQ(Kb().Get(exact.front()).id, "KiloM");
  // Case-insensitive fallback: "KM" has no exact match.
  std::span<const UnitId> ci = Kb().FindBySurface("KM");
  ASSERT_FALSE(ci.empty());
  EXPECT_EQ(Kb().Get(ci.front()).id, "KiloM");
  EXPECT_TRUE(Kb().FindBySurface("no-such-unit-xyz").empty());
}

TEST(DimUnitKBTest, CaseSensitiveMatchWinsOverFoldedFallback) {
  // Regression pin for the exact-first/ci-fallback contract. "M" is the
  // molar symbol, "m" the metre symbol: the uppercase query must take the
  // exact posting list (molar) and never fall through to the folded index,
  // which would surface metre.
  std::span<const UnitId> upper = Kb().FindBySurface("M");
  ASSERT_FALSE(upper.empty());
  for (UnitId uid : upper) {
    EXPECT_NE(Kb().Get(uid).id, "M")
        << "ci fallback leaked metre into an exact-match query";
  }
  bool molar = false;
  for (UnitId uid : upper) molar |= Kb().Get(uid).id == "MOLAR_U";
  EXPECT_TRUE(molar) << "exact surface 'M' should reach the molar unit";
  std::span<const UnitId> lower = Kb().FindBySurface("m");
  ASSERT_FALSE(lower.empty());
  EXPECT_EQ(Kb().Get(lower.front()).id, "M");
  // Non-ASCII surfaces have no case folding: exact and "folded" queries
  // must agree byte-for-byte.
  std::span<const UnitId> zh = Kb().FindBySurface("千克");
  ASSERT_FALSE(zh.empty());
  EXPECT_EQ(Kb().Get(zh.front()).id, "KiloGM");
}

TEST(DimUnitKBTest, ChineseSurfaceFormsIndexed) {
  std::span<const UnitId> zh = Kb().FindBySurface("千克");
  ASSERT_FALSE(zh.empty());
  EXPECT_EQ(Kb().Get(zh.front()).id, "KiloGM");
  std::span<const UnitId> jin = Kb().FindBySurface("斤");
  ASSERT_FALSE(jin.empty());
  EXPECT_EQ(Kb().Get(jin.front()).id, "JIN_CN");
}

TEST(DimUnitKBTest, AmbiguousSurfaceReturnsAllCandidates) {
  // "degree" is both the angle unit alias and part of temperature labels;
  // at minimum the angle unit must be found, and multiple matches must be
  // supported by the API shape.
  std::span<const UnitId> deg = Kb().FindBySurface("degrees");
  ASSERT_FALSE(deg.empty());
}

TEST(DimUnitKBTest, IdHandlesRoundTrip) {
  UnitId m = Kb().IdOf("M");
  ASSERT_TRUE(m.valid());
  EXPECT_EQ(Kb().Get(m).id, "M");
  EXPECT_EQ(Kb().IdOf("NO_SUCH_UNIT"), UnitId());
  EXPECT_FALSE(Kb().ResolveId("NO_SUCH_UNIT").ok());
  EXPECT_EQ(*Kb().ResolveId("KiloM"), Kb().IdOf("KiloM"));
}

TEST(DimUnitKBTest, UnitsOfDimensionForce) {
  std::span<const UnitId> force = Kb().UnitsOfDimension(dims::Force());
  // newton + dyne + poundal + kgf + lbf + 24 newton prefixes at least.
  EXPECT_GE(force.size(), 25u);
  for (UnitId uid : force) {
    EXPECT_EQ(Kb().Get(uid).dimension, dims::Force()) << Kb().Get(uid).id;
  }
}

TEST(DimUnitKBTest, UnitsOfKind) {
  std::span<const UnitId> vel = Kb().UnitsOfKind(Kb().KindIdOf("Velocity"));
  EXPECT_GE(vel.size(), 30u);  // 13x5 compounds + knot + mach + c
  EXPECT_FALSE(Kb().KindIdOf("NoSuchKind").valid());
  EXPECT_TRUE(Kb().UnitsOfKind(Kb().KindIdOf("NoSuchKind")).empty());
  EXPECT_TRUE(Kb().UnitsOfKind(KindId()).empty());
  // KindIdOf aligns with the registry record order.
  KindId velocity = Kb().KindIdOf("Velocity");
  ASSERT_TRUE(velocity.valid());
  EXPECT_EQ(Kb().GetKind(velocity).name, "Velocity");
  EXPECT_EQ(Kb().UnitsOfKind(velocity).size(), vel.size());
}

TEST(DimUnitKBTest, ConversionFactorByHandleMatchesSemantics) {
  UnitId in = Kb().IdOf("IN");
  UnitId cm = Kb().IdOf("CentiM");
  ASSERT_TRUE(in.valid());
  ASSERT_TRUE(cm.valid());
  // The memoized table must be bit-identical to the exact Rational path.
  EXPECT_DOUBLE_EQ(Kb().ConversionFactor(in, cm).ValueOrDie(), 2.54);
  EXPECT_DOUBLE_EQ(
      Kb().ConversionFactor(in, cm).ValueOrDie(),
      Kb().Get(in).Semantics().ConversionFactorTo(Kb().Get(cm).Semantics())
          .ValueOrDie());
  // Mismatched dimensions keep the slow path's status code.
  EXPECT_EQ(Kb().ConversionFactor(Kb().IdOf("KiloM"), Kb().IdOf("SEC"))
                .status()
                .code(),
            StatusCode::kDimensionMismatch);
  // Invalid handles are rejected, not dereferenced.
  EXPECT_EQ(Kb().ConversionFactor(UnitId(), cm).status().code(),
            StatusCode::kNotFound);
  // Affine endpoints (NaN in the memo) fall back to the exact slow path.
  UnitId celsius = Kb().IdOf("DEG_C");
  UnitId kelvin = Kb().IdOf("K");
  ASSERT_TRUE(celsius.valid());
  ASSERT_TRUE(kelvin.valid());
  EXPECT_EQ(Kb().ConversionFactor(celsius, kelvin).status().code(),
            Kb().Get(celsius)
                .Semantics()
                .ConversionFactorTo(Kb().Get(kelvin).Semantics())
                .status()
                .code());
}

TEST(DimUnitKBTest, ResolverEvaluatesUnitExpressions) {
  UnitResolver resolver = Kb().Resolver();
  UnitExpr e = UnitExpr::Parse("joule x metre").ValueOrDie();
  Dimension d = e.EvaluateDimension(resolver).ValueOrDie();
  EXPECT_EQ(d.ToFormula(), "L3MT-2");
  // Symbols resolve too.
  UnitExpr e2 = UnitExpr::Parse("km/h").ValueOrDie();
  EXPECT_EQ(e2.EvaluateDimension(resolver).ValueOrDie(), dims::Velocity());
}

TEST(DimUnitKBTest, FrequencyRankingPutsCommonUnitsFirst) {
  // Fig. 3's shape: metre/second-class units rank far above rarities.
  std::vector<UnitId> ranked = Kb().UnitsByFrequency();
  ASSERT_GT(ranked.size(), 100u);
  std::unordered_set<std::string> top50;
  for (std::size_t i = 0; i < 50; ++i) {
    top50.insert(std::string(Kb().Get(ranked[i]).id));
  }
  EXPECT_TRUE(top50.contains("M") || top50.contains("SEC") ||
              top50.contains("HR"))
      << "everyday units missing from the top of the ranking";
  // The paper's motivating contrast: metre is frequent, decimetre rare.
  EXPECT_GT(Rec("M").frequency, Rec("DeciM").frequency);
}

TEST(DimUnitKBTest, KindsByFrequencyRanked) {
  auto kinds = Kb().KindsByFrequency(5);
  ASSERT_GT(kinds.size(), 20u);
  // Descending order.
  for (std::size_t i = 1; i < kinds.size(); ++i) {
    EXPECT_GE(kinds[i - 1].second, kinds[i].second);
  }
  // Everyday kinds near the top (Fig. 4 shape): Length/Time/Mass in top 14.
  std::unordered_set<std::string> top14;
  for (std::size_t i = 0; i < 14 && i < kinds.size(); ++i) {
    top14.insert(std::string(Kb().GetKind(kinds[i].first).name));
  }
  EXPECT_TRUE(top14.contains("Length"));
  EXPECT_TRUE(top14.contains("Time"));
}

TEST(DimUnitKBTest, BilingualCoverage) {
  KbStats stats = Kb().Stats();
  // The vast majority of units carry a Chinese label (Table IV: En&Zh).
  EXPECT_GT(stats.num_units_with_zh, stats.num_units * 8 / 10);
}

TEST(DimUnitKBTest, AffineTemperatureUnits) {
  const UnitRecord& celsius = Rec("DEG_C");
  EXPECT_DOUBLE_EQ(celsius.conversion_offset, 273.15);
  Quantity q(25.0, celsius.Semantics());
  EXPECT_DOUBLE_EQ(q.SiValue(), 298.15);
  Quantity f(212.0, Rec("DEG_F").Semantics());
  EXPECT_NEAR(f.SiValue(), 373.15, 1e-9);
}

TEST(DimUnitKBTest, TsvRoundTrip) {
  std::string path =
      (std::filesystem::temp_directory_path() / "dimqr_kb_test.tsv").string();
  ASSERT_TRUE(Kb().SaveTsv(path).ok());
  auto loaded = DimUnitKB::LoadTsv(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  const DimUnitKB& kb2 = **loaded;
  ASSERT_EQ(kb2.units().size(), Kb().units().size());
  ASSERT_EQ(kb2.kinds().size(), Kb().kinds().size());
  for (std::size_t i = 0; i < 50; ++i) {
    const UnitRecord& a = Kb().units()[i];
    const UnitRecord& b = kb2.units()[i];
    EXPECT_EQ(a.id, b.id);
    EXPECT_EQ(a.label_zh, b.label_zh);
    ASSERT_EQ(a.symbols.size(), b.symbols.size());
    for (std::size_t j = 0; j < a.symbols.size(); ++j) {
      EXPECT_EQ(a.symbols[j], b.symbols[j]);
    }
    EXPECT_EQ(a.dimension, b.dimension);
    EXPECT_DOUBLE_EQ(a.conversion_value, b.conversion_value);
    EXPECT_EQ(a.exact_conversion.has_value(), b.exact_conversion.has_value());
    EXPECT_DOUBLE_EQ(a.frequency, b.frequency);
  }
  std::filesystem::remove(path);
}

TEST(DimUnitKBTest, TsvRoundTripRebuildsIdenticalInternedIndexes) {
  // LoadTsv must rebuild the interned identity layer so that every handle
  // resolves to the same record and every index answers the same queries as
  // the in-memory original (records are appended in catalog order, so the
  // handle spaces line up one-to-one).
  std::string path = (std::filesystem::temp_directory_path() /
                      "dimqr_kb_interned_roundtrip.tsv")
                         .string();
  ASSERT_TRUE(Kb().SaveTsv(path).ok());
  auto loaded = DimUnitKB::LoadTsv(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  const DimUnitKB& kb2 = **loaded;
  ASSERT_EQ(kb2.num_units(), Kb().num_units());

  for (std::size_t i = 0; i < Kb().num_units(); ++i) {
    const UnitId uid = UnitId::FromIndex(i);
    const UnitRecord& a = Kb().Get(uid);
    const UnitRecord& b = kb2.Get(uid);
    EXPECT_EQ(a.id, b.id);
    // ID lookup lands on the same handle in both KBs.
    EXPECT_EQ(kb2.IdOf(a.id), Kb().IdOf(a.id)) << a.id;
    // Surface postings agree handle-for-handle (same order, same ids).
    for (std::string_view surface : a.SurfaceForms()) {
      if (surface.empty()) continue;
      std::span<const UnitId> sa = Kb().FindBySurface(surface);
      std::span<const UnitId> sb = kb2.FindBySurface(surface);
      ASSERT_EQ(sa.size(), sb.size()) << surface;
      for (std::size_t j = 0; j < sa.size(); ++j) {
        EXPECT_EQ(sa[j], sb[j]) << surface;
      }
    }
    // Kind handles resolve to the same registry record.
    KindId ka = Kb().KindIdOf(a.quantity_kind);
    KindId kb_handle = kb2.KindIdOf(b.quantity_kind);
    EXPECT_EQ(ka, kb_handle) << a.quantity_kind;
  }
  // Dimension and kind indexes return identical posting lists.
  std::span<const UnitId> da = Kb().UnitsOfDimension(dims::Force());
  std::span<const UnitId> db = kb2.UnitsOfDimension(dims::Force());
  ASSERT_EQ(da.size(), db.size());
  for (std::size_t j = 0; j < da.size(); ++j) EXPECT_EQ(da[j], db[j]);
  std::span<const UnitId> va = Kb().UnitsOfKind(Kb().KindIdOf("Velocity"));
  std::span<const UnitId> vb = kb2.UnitsOfKind(kb2.KindIdOf("Velocity"));
  ASSERT_EQ(va.size(), vb.size());
  for (std::size_t j = 0; j < va.size(); ++j) EXPECT_EQ(va[j], vb[j]);
  // Memoized conversion tables produce identical factors.
  EXPECT_DOUBLE_EQ(
      kb2.ConversionFactor(kb2.IdOf("IN"), kb2.IdOf("CentiM")).ValueOrDie(),
      Kb().ConversionFactor(Kb().IdOf("IN"), Kb().IdOf("CentiM"))
          .ValueOrDie());
  std::filesystem::remove(path);
}

TEST(DimUnitKBTest, LoadTsvRejectsMissingFile) {
  EXPECT_EQ(DimUnitKB::LoadTsv("/no/such/path.tsv").status().code(),
            StatusCode::kIOError);
}

/// Conversion sanity sweep across well-known unit pairs.
struct ConvCase {
  const char* from;
  const char* to;
  double factor;
};

/// Printed next to each listed test (and into its ctest name) instead of
/// the raw struct bytes, whose pointers change in every process.
void PrintTo(const ConvCase& c, std::ostream* os) { *os << c.factor; }

class KbConversionSweep : public ::testing::TestWithParam<ConvCase> {};

TEST_P(KbConversionSweep, FactorMatches) {
  const ConvCase& c = GetParam();
  double f =
      Kb().ConversionFactor(Kb().IdOf(c.from), Kb().IdOf(c.to)).ValueOrDie();
  EXPECT_NEAR(f, c.factor, 1e-6 * c.factor) << c.from << " -> " << c.to;
}

INSTANTIATE_TEST_SUITE_P(
    KnownFactors, KbConversionSweep,
    ::testing::Values(ConvCase{"MI", "KiloM", 1.609344},
                      ConvCase{"LB", "GM", 453.59237},
                      ConvCase{"IN", "MilliM", 25.4},
                      ConvCase{"GAL_US", "LITRE", 3.785411784},
                      ConvCase{"HR", "SEC", 3600.0},
                      ConvCase{"ATM", "PA", 101325.0},
                      ConvCase{"CAL", "J", 4.184},
                      ConvCase{"KiloWH", "J", 3600000.0},
                      ConvCase{"JIN_CN", "GM", 500.0},
                      ConvCase{"MU_CN", "M2", 2000.0 / 3.0},
                      ConvCase{"KNOT", "KiloM-PER-HR", 1.852},
                      ConvCase{"LY", "M", 9460730472580800.0}),
    [](const ::testing::TestParamInfo<ConvCase>& info) {
      // "KNOT" -> "KiloM-PER-HR" is named "KNOT_to_KiloM_PER_HR".
      std::string name = std::string(info.param.from) + "_to_" + info.param.to;
      std::replace(name.begin(), name.end(), '-', '_');
      return name;
    });

}  // namespace
}  // namespace dimqr::kb
