#include "text/number_scanner.h"

#include <gtest/gtest.h>

#include <ostream>
#include <string>

namespace dimqr::text {
namespace {

TEST(NumberScannerTest, FindsSimpleIntegers) {
  auto m = ScanNumbers("there are 42 apples and 7 pears");
  ASSERT_EQ(m.size(), 2u);
  EXPECT_DOUBLE_EQ(m[0].value, 42.0);
  EXPECT_DOUBLE_EQ(m[1].value, 7.0);
  EXPECT_EQ(m[0].TextIn("there are 42 apples and 7 pears"), "42");
}

TEST(NumberScannerTest, FindsDecimals) {
  auto m = ScanNumbers("LeBron James's height is 2.06 meters");
  ASSERT_EQ(m.size(), 1u);
  EXPECT_DOUBLE_EQ(m[0].value, 2.06);
  ASSERT_TRUE(m[0].exact.has_value());
  EXPECT_EQ(*m[0].exact, Rational::Of(103, 50).ValueOrDie());
}

TEST(NumberScannerTest, FindsScientificNotation) {
  auto m = ScanNumbers("light travels 3e8 m/s or 1.5E-3 km/ms");
  ASSERT_EQ(m.size(), 2u);
  EXPECT_DOUBLE_EQ(m[0].value, 3e8);
  EXPECT_DOUBLE_EQ(m[1].value, 1.5e-3);
}

TEST(NumberScannerTest, PercentDividesBy100) {
  auto m = ScanNumbers("a pesticide containing 20% of agent");
  ASSERT_EQ(m.size(), 1u);
  EXPECT_TRUE(m[0].is_percent);
  EXPECT_DOUBLE_EQ(m[0].value, 0.2);
  EXPECT_EQ(*m[0].exact, Rational::Of(1, 5).ValueOrDie());
}

TEST(NumberScannerTest, SimpleFractions) {
  auto m = ScanNumbers("add 3/4 cup of flour");
  ASSERT_EQ(m.size(), 1u);
  EXPECT_TRUE(m[0].is_fraction);
  EXPECT_DOUBLE_EQ(m[0].value, 0.75);
}

TEST(NumberScannerTest, CommaGroupedIntegers) {
  auto m = ScanNumbers("the city has 1,250,000 residents");
  ASSERT_EQ(m.size(), 1u);
  EXPECT_DOUBLE_EQ(m[0].value, 1250000.0);
}

TEST(NumberScannerTest, CommaNotGroupingStaysSeparate) {
  auto m = ScanNumbers("pick 3,14 then");
  ASSERT_EQ(m.size(), 2u);
  EXPECT_DOUBLE_EQ(m[0].value, 3.0);
  EXPECT_DOUBLE_EQ(m[1].value, 14.0);
}

TEST(NumberScannerTest, NegativeNumbers) {
  auto m = ScanNumbers("it cooled to -40 degrees");
  ASSERT_EQ(m.size(), 1u);
  EXPECT_DOUBLE_EQ(m[0].value, -40.0);
}

TEST(NumberScannerTest, DeviceCodeDigitIsExtractedLikeThePaper) {
  // Algorithm 1's false-positive example: the heuristic annotator DOES
  // extract "1" from the device code "LPUI-1T" (misread as "1 Tesla");
  // the PLM filter in dimeval::SemiAutoAnnotate removes it later.
  auto m = ScanNumbers("the device LPUI-1T shipped");
  ASSERT_EQ(m.size(), 1u);
  EXPECT_DOUBLE_EQ(m[0].value, 1.0);  // hyphen read as hyphen, not minus
}

TEST(NumberScannerTest, DigitsInsideWordsSkipped) {
  auto m = ScanNumbers("see iso9001 and h2o");
  EXPECT_TRUE(m.empty());
}

TEST(NumberScannerTest, SpansAreByteAccurate) {
  std::string s = "x = 12.5% done";
  auto m = ScanNumbers(s);
  ASSERT_EQ(m.size(), 1u);
  EXPECT_EQ(s.substr(m[0].begin, m[0].end - m[0].begin), "12.5%");
}

TEST(NumberScannerTest, MultipleMentionsNonOverlapping) {
  auto m = ScanNumbers("convert 0.1 poundal into 5 dyn/cm units");
  // "5 dyn/cm": the 5 is standalone; "dyn/cm" contains no digits.
  ASSERT_EQ(m.size(), 2u);
  EXPECT_DOUBLE_EQ(m[0].value, 0.1);
  EXPECT_DOUBLE_EQ(m[1].value, 5.0);
}

TEST(NumberScannerTest, FractionNotDateLike) {
  auto m = ScanNumbers("on 3/4/2024 we met");
  // "3/4/2024" must not parse as the fraction 3/4.
  for (const auto& mention : m) {
    EXPECT_FALSE(mention.is_fraction);
  }
}

TEST(NumberScannerTest, TrailingDotNotDecimal) {
  auto m = ScanNumbers("it weighs 5. Then we left");
  ASSERT_EQ(m.size(), 1u);
  EXPECT_DOUBLE_EQ(m[0].value, 5.0);
  EXPECT_EQ(m[0].end, 11u);  // excludes the '.'
}

TEST(ParseNumberTest, WholeStringOnly) {
  EXPECT_TRUE(ParseNumber("42").has_value());
  EXPECT_TRUE(ParseNumber("2.06").has_value());
  EXPECT_TRUE(ParseNumber("20%").has_value());
  EXPECT_FALSE(ParseNumber("42 m").has_value());
  EXPECT_FALSE(ParseNumber("m").has_value());
  EXPECT_FALSE(ParseNumber("").has_value());
}

TEST(ParseNumberTest, ZeroDenominatorFractionRejected) {
  // "3/0" is not a valid numeric mention.
  EXPECT_FALSE(ParseNumber("3/0").has_value());
}

struct ScanCase {
  const char* text;
  double expected;
};

/// Printed next to each listed test (and into its ctest name) instead of
/// the raw struct bytes, whose pointer changes in every process.
void PrintTo(const ScanCase& c, std::ostream* os) { *os << c.expected; }

class NumberValueSweep : public ::testing::TestWithParam<ScanCase> {};

TEST_P(NumberValueSweep, ParsesToExpectedValue) {
  const ScanCase& c = GetParam();
  auto m = ScanNumbers(c.text);
  ASSERT_EQ(m.size(), 1u) << c.text;
  EXPECT_DOUBLE_EQ(m[0].value, c.expected) << c.text;
}

INSTANTIATE_TEST_SUITE_P(
    Forms, NumberValueSweep,
    ::testing::Values(ScanCase{"x 0.5 y", 0.5}, ScanCase{"x 100 y", 100.0},
                      ScanCase{"x 1e3 y", 1000.0},
                      ScanCase{"x 2.5e-2 y", 0.025},
                      ScanCase{"x 50% y", 0.5}, ScanCase{"x 1/8 y", 0.125},
                      ScanCase{"x +7 y", 7.0}, ScanCase{"x -2.5 y", -2.5},
                      ScanCase{"x 10,000 y", 10000.0}),
    [](const ::testing::TestParamInfo<ScanCase>& info) {
      // Named after the text: "x -2.5 y" -> "x_minus2p5_y".
      std::string name;
      for (const char* p = info.param.text; *p != '\0'; ++p) {
        switch (*p) {
          case ' ': name += "_"; break;
          case '.': name += "p"; break;
          case '%': name += "pct"; break;
          case '/': name += "_over_"; break;
          case '+': name += "plus"; break;
          case '-': name += "minus"; break;
          case ',': name += "comma"; break;
          default: name += *p;
        }
      }
      return name;
    });

}  // namespace
}  // namespace dimqr::text
