#include "core/unit_expr.h"

#include <gtest/gtest.h>

#include <map>
#include <ostream>
#include <string>

namespace dimqr {
namespace {

Rational R(std::int64_t n, std::int64_t d = 1) {
  return Rational::Of(n, d).ValueOrDie();
}

/// A small fixed resolver standing in for the knowledge base.
UnitResolver TestResolver() {
  auto table = std::make_shared<std::map<std::string, UnitSemantics>>();
  (*table)["metre"] = UnitSemantics::SiCoherent(dims::Length(), "m");
  (*table)["m"] = (*table)["metre"];
  (*table)["second"] = UnitSemantics::SiCoherent(dims::Time(), "s");
  (*table)["s"] = (*table)["second"];
  (*table)["kilogram"] = UnitSemantics::SiCoherent(dims::Mass(), "kg");
  (*table)["joule"] = UnitSemantics::SiCoherent(dims::Energy(), "J");
  (*table)["newton"] = UnitSemantics::SiCoherent(dims::Force(), "N");
  (*table)["km"] = UnitSemantics::Linear(dims::Length(), R(1000), "km");
  (*table)["h"] = UnitSemantics::Linear(dims::Time(), R(3600), "h");
  (*table)["cm"] = UnitSemantics::Linear(dims::Length(), R(1, 100), "cm");
  return [table](std::string_view name) -> Result<UnitSemantics> {
    auto it = table->find(std::string(name));
    if (it == table->end()) {
      return Status::NotFound("unknown unit '" + std::string(name) + "'");
    }
    return it->second;
  };
}

TEST(UnitExprTest, SingleUnit) {
  UnitExpr e = UnitExpr::Parse("metre").ValueOrDie();
  EXPECT_EQ(e.kind(), UnitExpr::Kind::kUnit);
  EXPECT_EQ(e.unit_name(), "metre");
  EXPECT_EQ(e.EvaluateDimension(TestResolver()).ValueOrDie(), dims::Length());
}

TEST(UnitExprTest, PaperTableIExample) {
  // F_c = "Joule x Meter" -> dimension L3MT-2.
  UnitExpr e = UnitExpr::Parse("joule x metre").ValueOrDie();
  Dimension d = e.EvaluateDimension(TestResolver()).ValueOrDie();
  EXPECT_EQ(d.ToFormula(), "L3MT-2");
}

TEST(UnitExprTest, StarAndUnicodeTimes) {
  for (const char* text : {"joule*metre", "joule \xC3\x97 metre"}) {
    UnitExpr e = UnitExpr::Parse(text).ValueOrDie();
    EXPECT_EQ(e.EvaluateDimension(TestResolver()).ValueOrDie().ToFormula(),
              "L3MT-2")
        << text;
  }
}

TEST(UnitExprTest, DivisionForms) {
  for (const char* text : {"m/s", "m per s", "m \xC3\xB7 s"}) {
    UnitExpr e = UnitExpr::Parse(text).ValueOrDie();
    EXPECT_EQ(e.EvaluateDimension(TestResolver()).ValueOrDie(),
              dims::Velocity())
        << text;
  }
}

TEST(UnitExprTest, PowerBindsTighterThanDivision) {
  UnitExpr e = UnitExpr::Parse("m/s^2").ValueOrDie();
  EXPECT_EQ(e.EvaluateDimension(TestResolver()).ValueOrDie(),
            dims::Acceleration());
}

TEST(UnitExprTest, NegativePower) {
  UnitExpr e = UnitExpr::Parse("s^-1").ValueOrDie();
  EXPECT_EQ(e.EvaluateDimension(TestResolver()).ValueOrDie(),
            dims::Frequency());
}

TEST(UnitExprTest, ParenthesesOverrideAssociativity) {
  // m/(s*s) == acceleration; m/s*s == length (left-assoc).
  EXPECT_EQ(UnitExpr::Parse("m/(s*s)")
                .ValueOrDie()
                .EvaluateDimension(TestResolver())
                .ValueOrDie(),
            dims::Acceleration());
  EXPECT_EQ(UnitExpr::Parse("m/s*s")
                .ValueOrDie()
                .EvaluateDimension(TestResolver())
                .ValueOrDie(),
            dims::Length());
}

TEST(UnitExprTest, EvaluateCombinesScales) {
  UnitSemantics kmh = UnitExpr::Parse("km/h")
                          .ValueOrDie()
                          .Evaluate(TestResolver())
                          .ValueOrDie();
  EXPECT_EQ(kmh.dimension, dims::Velocity());
  EXPECT_EQ(*kmh.exact_scale, R(5, 18));
}

TEST(UnitExprTest, LeafUnits) {
  UnitExpr e = UnitExpr::Parse("newton*metre/s^2").ValueOrDie();
  std::vector<std::string> leaves = e.LeafUnits();
  ASSERT_EQ(leaves.size(), 3u);
  EXPECT_EQ(leaves[0], "newton");
  EXPECT_EQ(leaves[1], "metre");
  EXPECT_EQ(leaves[2], "s");
}

TEST(UnitExprTest, UnknownUnitSurfacesNotFound) {
  UnitExpr e = UnitExpr::Parse("blorp/s").ValueOrDie();
  EXPECT_EQ(e.EvaluateDimension(TestResolver()).status().code(),
            StatusCode::kNotFound);
}

TEST(UnitExprTest, MalformedInputsRejected) {
  EXPECT_FALSE(UnitExpr::Parse("").ok());
  EXPECT_FALSE(UnitExpr::Parse("m/").ok());
  EXPECT_FALSE(UnitExpr::Parse("*m").ok());
  EXPECT_FALSE(UnitExpr::Parse("m^").ok());
  EXPECT_FALSE(UnitExpr::Parse("(m/s").ok());
  EXPECT_FALSE(UnitExpr::Parse("m)s(").ok());
  EXPECT_FALSE(UnitExpr::Parse("m^x").ok());
}

TEST(UnitExprTest, NestingDepthIsBounded) {
  // One recursion per parenthesis: past the limit Parse fails cleanly
  // instead of exhausting the stack.
  auto nested = [](int depth) {
    return std::string(static_cast<std::size_t>(depth), '(') + "m" +
           std::string(static_cast<std::size_t>(depth), ')');
  };
  EXPECT_EQ(UnitExpr::Parse(nested(100000)).status().code(),
            StatusCode::kParseError);
  EXPECT_EQ(UnitExpr::Parse(nested(UnitExpr::kMaxNesting + 1)).status().code(),
            StatusCode::kParseError);
  EXPECT_EQ(UnitExpr::Parse(nested(UnitExpr::kMaxNesting))
                .ValueOrDie()
                .EvaluateDimension(TestResolver())
                .ValueOrDie(),
            dims::Length());
}

TEST(UnitExprTest, FlatOperatorChainIsBounded) {
  // A flat chain builds a tree one level taller per operator, and
  // Evaluate, ToString and the destructor recurse once per level: Parse
  // must refuse a chain past the limit although its descent stays shallow.
  // Alternating '*' and '/' keeps the exponent of metre at 1 or 2.
  auto chain = [](int operators) {
    std::string text = "m";
    for (int i = 0; i < operators; ++i) text += i % 2 == 0 ? "*m" : "/m";
    return text;
  };
  EXPECT_EQ(UnitExpr::Parse(chain(100000)).status().code(),
            StatusCode::kParseError);
  EXPECT_EQ(UnitExpr::Parse(chain(1000000)).status().code(),
            StatusCode::kParseError);
  EXPECT_EQ(UnitExpr::Parse(chain(UnitExpr::kMaxNesting + 1)).status().code(),
            StatusCode::kParseError);
  UnitExpr at_limit = UnitExpr::Parse(chain(UnitExpr::kMaxNesting))
                          .ValueOrDie();
  EXPECT_EQ(at_limit.EvaluateDimension(TestResolver()).ValueOrDie(),
            dims::Length());
  EXPECT_EQ(at_limit.LeafUnits().size(),
            static_cast<std::size_t>(UnitExpr::kMaxNesting) + 1);
  // ToString parenthesizes every operator node: kMaxNesting levels, which
  // parse back.
  EXPECT_EQ(UnitExpr::Parse(at_limit.ToString())
                .ValueOrDie()
                .EvaluateDimension(TestResolver())
                .ValueOrDie(),
            dims::Length());
}

TEST(UnitExprTest, ToStringRoundTripsThroughParse) {
  const char* exprs[] = {"m/s^2", "joule*metre", "km/h", "(m/s)*s"};
  for (const char* text : exprs) {
    UnitExpr e1 = UnitExpr::Parse(text).ValueOrDie();
    UnitExpr e2 = UnitExpr::Parse(e1.ToString()).ValueOrDie();
    EXPECT_EQ(e1.EvaluateDimension(TestResolver()).ValueOrDie(),
              e2.EvaluateDimension(TestResolver()).ValueOrDie())
        << text;
  }
}

/// Definition 6 sweep: arithmetic over units matches hand-computed dims.
struct ArithCase {
  const char* expr;
  const char* formula;
};

/// gtest prints the parameter next to each listed test, and CMake's test
/// discovery appends that to a named case's ctest name. Without PrintTo it
/// would be the raw struct bytes, whose pointers change in every process;
/// the name already spells the expression, so print the expected formula.
void PrintTo(const ArithCase& c, std::ostream* os) { *os << c.formula; }

class DimensionArithmeticTest : public ::testing::TestWithParam<ArithCase> {};

TEST_P(DimensionArithmeticTest, MatchesExpectedFormula) {
  const ArithCase& c = GetParam();
  UnitExpr e = UnitExpr::Parse(c.expr).ValueOrDie();
  EXPECT_EQ(e.EvaluateDimension(TestResolver()).ValueOrDie().ToFormula(),
            c.formula)
      << c.expr;
}

/// Test name from the expression, parentheses dropped: "kilogram*m/s^2" ->
/// "kilogram_x_m_per_s_pow_2".
std::string ArithCaseName(const ::testing::TestParamInfo<ArithCase>& info) {
  std::string name;
  for (const char* p = info.param.expr; *p != '\0'; ++p) {
    switch (*p) {
      case '*': name += "_x_"; break;
      case '/': name += "_per_"; break;
      case '^': name += "_pow_"; break;
      case '(': case ')': break;
      default: name += *p;
    }
  }
  return name;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, DimensionArithmeticTest,
    ::testing::Values(ArithCase{"newton/m", "MT-2"},
                      ArithCase{"joule/newton", "L"},
                      ArithCase{"joule/s", "L2MT-3"},
                      ArithCase{"kilogram*m/s^2", "LMT-2"},
                      ArithCase{"m*m*m/s", "L3T-1"},
                      ArithCase{"m/m", "D"},
                      ArithCase{"cm^3", "L3"},
                      ArithCase{"newton/(m*m)", "L-1MT-2"}),
    ArithCaseName);

}  // namespace
}  // namespace dimqr
