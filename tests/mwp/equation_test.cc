#include "mwp/equation.h"

#include <gtest/gtest.h>

#include <string>

namespace dimqr::mwp {
namespace {

TEST(EquationTest, NumberLiteral) {
  Equation e = Equation::Number(42);
  EXPECT_TRUE(e.is_number());
  EXPECT_DOUBLE_EQ(e.Evaluate().ValueOrDie(), 42.0);
  EXPECT_EQ(e.ToString(), "42");
  EXPECT_EQ(e.OperationCount(), 0);
}

TEST(EquationTest, PercentLiteral) {
  Equation e = Equation::Number(20, /*percent=*/true);
  EXPECT_DOUBLE_EQ(e.Evaluate().ValueOrDie(), 0.2);
  EXPECT_EQ(e.ToString(), "20%");
}

TEST(EquationTest, BinaryTreeEvaluation) {
  // (150*20%)/5% - 150 = 450 — the Table V dilution answer.
  Equation e = Equation::Binary(
      '-',
      Equation::Binary('/',
                       Equation::Binary('*', Equation::Number(150),
                                        Equation::Number(20, true)),
                       Equation::Number(5, true)),
      Equation::Number(150));
  EXPECT_DOUBLE_EQ(e.Evaluate().ValueOrDie(), 450.0);
  EXPECT_EQ(e.OperationCount(), 3);
}

TEST(EquationTest, ParseRespectsPrecedence) {
  EXPECT_DOUBLE_EQ(Equation::Parse("2+3*4").ValueOrDie().Evaluate().ValueOrDie(),
                   14.0);
  EXPECT_DOUBLE_EQ(
      Equation::Parse("(2+3)*4").ValueOrDie().Evaluate().ValueOrDie(), 20.0);
  EXPECT_DOUBLE_EQ(
      Equation::Parse("10-4-3").ValueOrDie().Evaluate().ValueOrDie(), 3.0);
  EXPECT_DOUBLE_EQ(
      Equation::Parse("24/4/2").ValueOrDie().Evaluate().ValueOrDie(), 3.0);
}

TEST(EquationTest, ParsePercentAndDecimals) {
  EXPECT_DOUBLE_EQ(
      Equation::Parse("150*20%/5%-150").ValueOrDie().Evaluate().ValueOrDie(),
      450.0);
  EXPECT_DOUBLE_EQ(
      Equation::Parse("2.5*4").ValueOrDie().Evaluate().ValueOrDie(), 10.0);
}

TEST(EquationTest, ParseUnaryMinus) {
  EXPECT_DOUBLE_EQ(
      Equation::Parse("-3+5").ValueOrDie().Evaluate().ValueOrDie(), 2.0);
  EXPECT_DOUBLE_EQ(
      Equation::Parse("2*(-3)").ValueOrDie().Evaluate().ValueOrDie(), -6.0);
}

TEST(EquationTest, ParseRejectsJunk) {
  EXPECT_FALSE(Equation::Parse("").ok());
  EXPECT_FALSE(Equation::Parse("2+").ok());
  EXPECT_FALSE(Equation::Parse("(2+3").ok());
  EXPECT_FALSE(Equation::Parse("abc").ok());
  EXPECT_FALSE(Equation::Parse("2 3").ok());
  EXPECT_FALSE(Equation::Parse("2^3").ok());
}

TEST(EquationTest, DivisionByZero) {
  EXPECT_FALSE(Equation::Parse("1/0").ValueOrDie().Evaluate().ok());
  EXPECT_FALSE(
      Equation::Parse("5/(3-3)").ValueOrDie().Evaluate().ok());
}

TEST(EquationTest, ToStringRoundTrips) {
  const char* cases[] = {"2+3*4", "(2+3)*4", "10-(4-3)", "1/(1/4+1/6)",
                         "150*20%/5%-150", "2*(3+4)/(5-1)"};
  for (const char* text : cases) {
    Equation e = Equation::Parse(text).ValueOrDie();
    Equation round = Equation::Parse(e.ToString()).ValueOrDie();
    EXPECT_DOUBLE_EQ(round.Evaluate().ValueOrDie(),
                     e.Evaluate().ValueOrDie())
        << text << " -> " << e.ToString();
  }
}

TEST(EquationTest, MinimalParentheses) {
  Equation e = Equation::Binary(
      '+', Equation::Number(2),
      Equation::Binary('*', Equation::Number(3), Equation::Number(4)));
  EXPECT_EQ(e.ToString(), "2+3*4");
  Equation f = Equation::Binary(
      '*', Equation::Binary('+', Equation::Number(2), Equation::Number(3)),
      Equation::Number(4));
  EXPECT_EQ(f.ToString(), "(2+3)*4");
  // Right-associated subtraction needs parens.
  Equation g = Equation::Binary(
      '-', Equation::Number(10),
      Equation::Binary('-', Equation::Number(4), Equation::Number(3)));
  EXPECT_EQ(g.ToString(), "10-(4-3)");
}

TEST(EquationTest, NestingDepthIsBounded) {
  // The descent recurses once per parenthesis or unary minus; past the
  // limit Parse must fail cleanly instead of exhausting the stack.
  auto parens = [](int depth) {
    return std::string(static_cast<std::size_t>(depth), '(') + "1" +
           std::string(static_cast<std::size_t>(depth), ')');
  };
  auto minuses = [](int depth) {
    return std::string(static_cast<std::size_t>(depth), '-') + "1";
  };
  EXPECT_EQ(Equation::Parse(parens(100000)).status().code(),
            StatusCode::kParseError);
  EXPECT_EQ(Equation::Parse(minuses(100000)).status().code(),
            StatusCode::kParseError);
  EXPECT_EQ(Equation::Parse(parens(Equation::kMaxNesting + 1)).status().code(),
            StatusCode::kParseError);
  EXPECT_DOUBLE_EQ(Equation::Parse(parens(Equation::kMaxNesting))
                       .ValueOrDie()
                       .Evaluate()
                       .ValueOrDie(),
                   1.0);
  // An even number of negations is the identity.
  EXPECT_DOUBLE_EQ(Equation::Parse(minuses(Equation::kMaxNesting))
                       .ValueOrDie()
                       .Evaluate()
                       .ValueOrDie(),
                   1.0);
}

TEST(EquationTest, FlatOperatorChainIsBounded) {
  // A flat chain builds a tree one level taller per operator, and
  // Evaluate, ToString and the destructor recurse once per level: Parse
  // must refuse a chain past the limit although its descent stays shallow.
  auto chain = [](char op, int operators) {
    std::string text = "1";
    for (int i = 0; i < operators; ++i) {
      text += op;
      text += '1';
    }
    return text;
  };
  for (char op : {'+', '*'}) {
    EXPECT_EQ(Equation::Parse(chain(op, 100000)).status().code(),
              StatusCode::kParseError);
    EXPECT_EQ(Equation::Parse(chain(op, 1000000)).status().code(),
              StatusCode::kParseError);
    EXPECT_EQ(
        Equation::Parse(chain(op, Equation::kMaxNesting + 1)).status().code(),
        StatusCode::kParseError);
  }
  Equation sum = Equation::Parse(chain('+', Equation::kMaxNesting))
                     .ValueOrDie();
  EXPECT_DOUBLE_EQ(sum.Evaluate().ValueOrDie(), Equation::kMaxNesting + 1.0);
  EXPECT_EQ(sum.OperationCount(), Equation::kMaxNesting);
  EXPECT_EQ(sum.ToString(), chain('+', Equation::kMaxNesting));
}

TEST(EquationAnswersMatchTest, CalculatorScoring) {
  // The Section VI-D calculator: equation strings scored by final value.
  EXPECT_TRUE(EquationAnswersMatch("150*20%/5%-150", 450.0));
  EXPECT_TRUE(EquationAnswersMatch("450", 450.0));
  EXPECT_TRUE(EquationAnswersMatch("900/2", 450.0));
  EXPECT_FALSE(EquationAnswersMatch("150*20%/5%", 450.0));
  EXPECT_FALSE(EquationAnswersMatch("garbage", 450.0));
  EXPECT_FALSE(EquationAnswersMatch("1/0", 450.0));
  EXPECT_FALSE(EquationAnswersMatch("", 450.0));
}

TEST(EquationAnswersMatchTest, ToleranceIsRelative) {
  EXPECT_TRUE(EquationAnswersMatch("1000000", 1000000.01));
  EXPECT_FALSE(EquationAnswersMatch("1", 1.1));
}

}  // namespace
}  // namespace dimqr::mwp
