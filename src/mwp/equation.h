#ifndef DIMQR_MWP_EQUATION_H_
#define DIMQR_MWP_EQUATION_H_

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/status.h"

/// \file equation.h
/// Arithmetic expression trees for math word problems, plus the parser
/// used as the "calculator" of Section VI-D ("for equation-generating
/// models, we use a calculator to assess the accuracy of their equations").
///
/// Grammar: standard precedence, left-associative:
///   expr   := term (('+' | '-') term)*
///   term   := factor (('*' | '/') factor)*
///   factor := number | number '%' | '(' expr ')' | '-' factor

namespace dimqr::mwp {

/// \brief An arithmetic expression over numeric literals.
class Equation {
 public:
  /// The literal `value`; when `percent` is set it renders as "v%" and
  /// evaluates as value/100.
  static Equation Number(double value, bool percent = false);

  /// A binary node; op in {+, -, *, /}.
  static Equation Binary(char op, Equation lhs, Equation rhs);

  /// Deepest nesting Parse accepts, both of parentheses / unary minuses
  /// and of operators on the tree's longest root-to-leaf path (a flat
  /// "1+1+...+1" chain counts each operator); generated equations nest a
  /// few levels.
  static constexpr int kMaxNesting = 256;

  /// \brief Parses an equation string. Returns ParseError on junk or on
  /// nesting deeper than kMaxNesting, InvalidArgument on unsupported
  /// operators.
  static dimqr::Result<Equation> Parse(std::string_view text);

  /// \brief Evaluates the tree. Division by zero is InvalidArgument.
  dimqr::Result<double> Evaluate() const;

  /// \brief Number of binary operations in the tree (Table VI buckets).
  int OperationCount() const;

  /// \brief Canonical text form with minimal parentheses; numbers render
  /// via %g (integers without decimal point).
  std::string ToString() const;

  bool is_number() const { return op_ == 0; }
  char op() const { return op_; }
  double number_value() const { return value_; }
  bool is_percent() const { return percent_; }
  const Equation& lhs() const { return children_[0]; }
  const Equation& rhs() const { return children_[1]; }

 private:
  Equation() = default;

  char op_ = 0;  ///< 0 for a literal, else '+', '-', '*', '/'.
  double value_ = 0.0;
  bool percent_ = false;
  std::vector<Equation> children_;
};

/// \brief Checks a model-emitted equation string against a reference
/// answer: parse, evaluate, compare within relative tolerance. Returns
/// false for unparseable strings (never an error — this is the scoring
/// path).
bool EquationAnswersMatch(std::string_view equation_text, double answer,
                          double relative_tolerance = 1e-4);

}  // namespace dimqr::mwp

#endif  // DIMQR_MWP_EQUATION_H_
