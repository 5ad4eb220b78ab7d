#ifndef DIMQR_CORE_UNIT_EXPR_H_
#define DIMQR_CORE_UNIT_EXPR_H_

#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/quantity.h"
#include "core/status.h"

/// \file unit_expr.h
/// Arithmetic expressions of units — F_c in Table I ("Joule x Meter").
///
/// Grammar (left-associative, '^' binds tightest):
///   expr   := term (('*' | 'x' | '/' | 'per') term)*
///   term   := factor ('^' integer)?
///   factor := unit-name | '(' expr ')'
/// Unit names are resolved through a caller-supplied resolver, so this module
/// stays independent of the knowledge base.

namespace dimqr {

/// \brief Maps a unit name/symbol to its semantics. Returns NotFound for
/// unknown names.
using UnitResolver =
    std::function<Result<UnitSemantics>(std::string_view name)>;

/// \brief A parsed unit expression tree.
class UnitExpr {
 public:
  enum class Kind { kUnit, kTimes, kOver, kPower };

  /// \brief Parses an expression like "joule * metre" or "m/s^2".
  ///
  /// Multiplication may be written '*', 'x' (letter), or U+00D7; division
  /// '/', the word "per", or U+00F7. Returns ParseError on malformed input,
  /// including nesting deeper than kMaxNesting.
  static Result<UnitExpr> Parse(std::string_view text);

  /// Deepest nesting Parse accepts, both of parentheses and of operators on
  /// the tree's longest root-to-leaf path (a flat "m*m*...*m" chain counts
  /// each operator); generated expressions nest a few levels.
  static constexpr int kMaxNesting = 256;

  Kind kind() const { return kind_; }

  /// For kUnit nodes: the unit name as written.
  const std::string& unit_name() const { return name_; }

  /// For kPower nodes: the integer exponent.
  int exponent() const { return exponent_; }

  /// Child nodes (2 for kTimes/kOver, 1 for kPower, 0 for kUnit).
  const std::vector<UnitExpr>& children() const { return children_; }

  /// \brief Evaluates the expression to combined unit semantics (dimension +
  /// conversion scale) using `resolver` for the leaves.
  Result<UnitSemantics> Evaluate(const UnitResolver& resolver) const;

  /// \brief Evaluates only the dimension of the expression — the Dimension
  /// Arithmetic task (Definition 6) needs dim(E).
  Result<Dimension> EvaluateDimension(const UnitResolver& resolver) const;

  /// The names of all leaf units, left to right.
  std::vector<std::string> LeafUnits() const;

  /// Round-trippable text form, e.g. "(joule*metre)/second^2".
  std::string ToString() const;

 private:
  UnitExpr() = default;

  Kind kind_ = Kind::kUnit;
  std::string name_;
  int exponent_ = 1;
  std::vector<UnitExpr> children_;

  friend class UnitExprParser;
};

}  // namespace dimqr

#endif  // DIMQR_CORE_UNIT_EXPR_H_
