#include "core/quantity.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <ostream>
#include <string>

namespace dimqr {
namespace {

Rational R(std::int64_t n, std::int64_t d = 1) {
  return Rational::Of(n, d).ValueOrDie();
}

UnitSemantics Metre() {
  return UnitSemantics::SiCoherent(dims::Length(), "m");
}
UnitSemantics Centimetre() {
  return UnitSemantics::Linear(dims::Length(), R(1, 100), "cm");
}
UnitSemantics Kilometre() {
  return UnitSemantics::Linear(dims::Length(), R(1000), "km");
}
UnitSemantics Second() { return UnitSemantics::SiCoherent(dims::Time(), "s"); }
UnitSemantics Hour() {
  return UnitSemantics::Linear(dims::Time(), R(3600), "h");
}
UnitSemantics Kilogram() {
  return UnitSemantics::SiCoherent(dims::Mass(), "kg");
}
UnitSemantics Celsius() {
  return UnitSemantics::Affine(dims::Temperature(), R(1), 273.15, "degC");
}
UnitSemantics Fahrenheit() {
  return UnitSemantics::Affine(dims::Temperature(), R(5, 9),
                               273.15 - 32.0 * 5.0 / 9.0, "degF");
}

TEST(UnitSemanticsTest, SiCoherentHasUnitScale) {
  UnitSemantics m = Metre();
  EXPECT_DOUBLE_EQ(m.scale, 1.0);
  EXPECT_TRUE(m.exact_scale->IsOne());
  EXPECT_FALSE(m.IsAffine());
}

TEST(UnitSemanticsTest, TimesCombinesDimensionAndScale) {
  UnitSemantics kmh = Kilometre().Over(Hour()).ValueOrDie();
  EXPECT_EQ(kmh.dimension, dims::Velocity());
  EXPECT_DOUBLE_EQ(kmh.scale, 1000.0 / 3600.0);
  EXPECT_EQ(*kmh.exact_scale, R(5, 18));
  EXPECT_EQ(kmh.label, "km/h");
}

TEST(UnitSemanticsTest, PowerCubesScale) {
  UnitSemantics cm3 = Centimetre().Power(3).ValueOrDie();
  EXPECT_EQ(cm3.dimension, dims::Volume());
  EXPECT_EQ(*cm3.exact_scale, R(1, 1000000));
}

TEST(UnitSemanticsTest, AffineUnitsCannotCompose) {
  EXPECT_FALSE(Celsius().Times(Metre()).ok());
  EXPECT_FALSE(Metre().Over(Celsius()).ok());
  EXPECT_FALSE(Celsius().Power(2).ok());
}

TEST(UnitSemanticsTest, ConversionFactorDefinition8) {
  // Definition 8: u1 * beta = u2 -> 1 km = 1000 m.
  EXPECT_DOUBLE_EQ(Kilometre().ConversionFactorTo(Metre()).ValueOrDie(),
                   1000.0);
  EXPECT_DOUBLE_EQ(Centimetre().ConversionFactorTo(Metre()).ValueOrDie(),
                   0.01);
  EXPECT_EQ(Kilometre().ExactConversionFactorTo(Centimetre()).ValueOrDie(),
            R(100000));
}

TEST(UnitSemanticsTest, ConversionAcrossDimensionsFails) {
  Result<double> r = Kilometre().ConversionFactorTo(Second());
  EXPECT_EQ(r.status().code(), StatusCode::kDimensionMismatch);
}

TEST(UnitSemanticsTest, AffineConversionFactorFails) {
  EXPECT_EQ(Celsius()
                .ConversionFactorTo(
                    UnitSemantics::SiCoherent(dims::Temperature(), "K"))
                .status()
                .code(),
            StatusCode::kInvalidArgument);
}

TEST(QuantityTest, SiValue) {
  EXPECT_DOUBLE_EQ(Quantity(2.0, Kilometre()).SiValue(), 2000.0);
  EXPECT_DOUBLE_EQ(Quantity(188.0, Centimetre()).SiValue(), 1.88);
  EXPECT_DOUBLE_EQ(Quantity(25.0, Celsius()).SiValue(), 298.15);
}

TEST(QuantityTest, ConvertLinear) {
  Quantity q(2.06, Metre());
  Quantity cm = q.ConvertTo(Centimetre()).ValueOrDie();
  EXPECT_DOUBLE_EQ(cm.value(), 206.0);
  EXPECT_EQ(cm.unit().label, "cm");
}

TEST(QuantityTest, ConvertAffineCelsiusToFahrenheit) {
  Quantity boiling(100.0, Celsius());
  Quantity f = boiling.ConvertTo(Fahrenheit()).ValueOrDie();
  EXPECT_NEAR(f.value(), 212.0, 1e-9);
  Quantity freezing(32.0, Fahrenheit());
  EXPECT_NEAR(freezing.ConvertTo(Celsius()).ValueOrDie().value(), 0.0, 1e-9);
}

TEST(QuantityTest, ConvertDimensionMismatchFails) {
  Quantity q(1.0, Metre());
  EXPECT_EQ(q.ConvertTo(Second()).status().code(),
            StatusCode::kDimensionMismatch);
}

TEST(QuantityTest, PaperIntroComparison) {
  // "LeBron James's height is 2.06 meters and Stephen Curry's is 188 cm"
  // -> LeBron is taller.
  Quantity lebron(2.06, Metre());
  Quantity curry(188.0, Centimetre());
  EXPECT_EQ(lebron.Compare(curry).ValueOrDie(), 1);
  EXPECT_EQ(curry.Compare(lebron).ValueOrDie(), -1);
  EXPECT_EQ(lebron.Compare(Quantity(206.0, Centimetre())).ValueOrDie(), 0);
}

TEST(QuantityTest, DimensionLawBlocksCrossDimensionOps) {
  Quantity length(1.0, Metre());
  Quantity mass(1.0, Kilogram());
  EXPECT_EQ(length.Add(mass).status().code(), StatusCode::kDimensionMismatch);
  EXPECT_EQ(length.Sub(mass).status().code(), StatusCode::kDimensionMismatch);
  EXPECT_EQ(length.Compare(mass).status().code(),
            StatusCode::kDimensionMismatch);
}

TEST(QuantityTest, AddConvertsRhsToLhsUnit) {
  Quantity a(1.0, Metre());
  Quantity b(50.0, Centimetre());
  Quantity sum = a.Add(b).ValueOrDie();
  EXPECT_DOUBLE_EQ(sum.value(), 1.5);
  EXPECT_EQ(sum.unit().label, "m");
  Quantity diff = a.Sub(b).ValueOrDie();
  EXPECT_DOUBLE_EQ(diff.value(), 0.5);
}

TEST(QuantityTest, MulDivCombineDimensions) {
  Quantity d(120.0, Kilometre());
  Quantity t(2.0, Hour());
  Quantity v = d.Div(t).ValueOrDie();
  EXPECT_EQ(v.dimension(), dims::Velocity());
  EXPECT_DOUBLE_EQ(v.value(), 60.0);
  EXPECT_DOUBLE_EQ(v.SiValue(), 60.0 * 1000.0 / 3600.0);

  Quantity back = v.Mul(t).ValueOrDie();
  EXPECT_EQ(back.dimension(), dims::Length());
  EXPECT_DOUBLE_EQ(back.SiValue(), 120000.0);
}

TEST(QuantityTest, DivisionByZeroQuantityFails) {
  Quantity a(1.0, Metre());
  Quantity zero(0.0, Second());
  EXPECT_EQ(a.Div(zero).status().code(), StatusCode::kInvalidArgument);
}

TEST(QuantityTest, ToStringIncludesLabel) {
  EXPECT_EQ(Quantity(2.5, Kilometre()).ToString(), "2.5 km");
  EXPECT_EQ(Quantity(7.0, UnitSemantics::Dimensionless()).ToString(), "7");
}

/// Property sweep: converting there-and-back is the identity (within fp
/// tolerance) for any pair of same-dimension units.
struct ConvertCase {
  double value;
  std::int64_t scale_num, scale_den;
};

/// Printed next to each listed test (and into its ctest name) instead of
/// the raw struct bytes.
void PrintTo(const ConvertCase& c, std::ostream* os) { *os << c.value; }

class QuantityRoundTripTest : public ::testing::TestWithParam<ConvertCase> {};

TEST_P(QuantityRoundTripTest, ThereAndBack) {
  const ConvertCase& c = GetParam();
  UnitSemantics u =
      UnitSemantics::Linear(dims::Length(), R(c.scale_num, c.scale_den), "u");
  Quantity q(c.value, Metre());
  Quantity round =
      q.ConvertTo(u).ValueOrDie().ConvertTo(Metre()).ValueOrDie();
  EXPECT_NEAR(round.value(), c.value, 1e-9 * std::abs(c.value) + 1e-12);
}

INSTANTIATE_TEST_SUITE_P(
    Conversions, QuantityRoundTripTest,
    ::testing::Values(ConvertCase{1.0, 1000, 1}, ConvertCase{2.06, 1, 100},
                      ConvertCase{-3.5, 1609344, 1000},
                      ConvertCase{1e6, 254, 10000},
                      ConvertCase{0.0, 9144, 10000},
                      ConvertCase{123.456, 1, 1000000}),
    [](const ::testing::TestParamInfo<ConvertCase>& info) {
      // "<value>_via_<num>_<den>": {-3.5, 1609344, 1000} ->
      // "minus3p5_via_1609344_1000".
      char value[32];
      std::snprintf(value, sizeof(value), "%g", info.param.value);
      std::string name;
      for (const char* p = value; *p != '\0'; ++p) {
        if (*p == '.') name += 'p';
        else if (*p == '-') name += "minus";
        else if (*p != '+') name += *p;
      }
      return name + "_via_" + std::to_string(info.param.scale_num) + "_" +
             std::to_string(info.param.scale_den);
    });

}  // namespace
}  // namespace dimqr
