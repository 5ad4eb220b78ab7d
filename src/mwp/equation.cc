#include "mwp/equation.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>

namespace dimqr::mwp {
namespace {

using dimqr::Result;
using dimqr::Status;

int Precedence(char op) { return (op == '+' || op == '-') ? 1 : 2; }

std::string FormatNumber(double value) {
  char buf[48];
  if (value == std::floor(value) && std::fabs(value) < 1e15) {
    std::snprintf(buf, sizeof(buf), "%.0f", value);
  } else {
    // Full precision so printed factors reparse to the same value.
    std::snprintf(buf, sizeof(buf), "%.12g", value);
  }
  return buf;
}

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Result<Equation> Run() {
    int height = 0;
    DIMQR_ASSIGN_OR_RETURN(Equation e, ParseExpr(height));
    SkipSpace();
    if (pos_ != text_.size()) {
      return Status::ParseError("trailing characters in equation");
    }
    return e;
  }

 private:
  void SkipSpace() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  // Each Parse* sets `height` to the height of the tree it returns: 0 for
  // a number, one more than the taller child for an operator node.
  Result<Equation> ParseExpr(int& height) {
    DIMQR_ASSIGN_OR_RETURN(Equation lhs, ParseTerm(height));
    for (;;) {
      SkipSpace();
      if (pos_ >= text_.size() ||
          (text_[pos_] != '+' && text_[pos_] != '-')) {
        return lhs;
      }
      char op = text_[pos_++];
      int rhs_height = 0;
      DIMQR_ASSIGN_OR_RETURN(Equation rhs, ParseTerm(rhs_height));
      DIMQR_RETURN_NOT_OK(Join(height, rhs_height));
      lhs = Equation::Binary(op, std::move(lhs), std::move(rhs));
    }
  }

  Result<Equation> ParseTerm(int& height) {
    DIMQR_ASSIGN_OR_RETURN(Equation lhs, ParseFactor(height));
    for (;;) {
      SkipSpace();
      if (pos_ >= text_.size() ||
          (text_[pos_] != '*' && text_[pos_] != '/')) {
        return lhs;
      }
      char op = text_[pos_++];
      int rhs_height = 0;
      DIMQR_ASSIGN_OR_RETURN(Equation rhs, ParseFactor(rhs_height));
      DIMQR_RETURN_NOT_OK(Join(height, rhs_height));
      lhs = Equation::Binary(op, std::move(lhs), std::move(rhs));
    }
  }

  Result<Equation> ParseFactor(int& height) {
    SkipSpace();
    if (pos_ >= text_.size()) {
      return Status::ParseError("unexpected end of equation");
    }
    char c = text_[pos_];
    if (c == '(') {
      ++pos_;
      DIMQR_RETURN_NOT_OK(Descend());
      DIMQR_ASSIGN_OR_RETURN(Equation e, ParseExpr(height));
      --depth_;
      SkipSpace();
      if (pos_ >= text_.size() || text_[pos_] != ')') {
        return Status::ParseError("missing ')' in equation");
      }
      ++pos_;
      return e;
    }
    if (c == '-') {
      ++pos_;
      DIMQR_RETURN_NOT_OK(Descend());
      DIMQR_ASSIGN_OR_RETURN(Equation inner, ParseFactor(height));
      --depth_;
      DIMQR_RETURN_NOT_OK(Join(height, 0));
      return Equation::Binary('-', Equation::Number(0.0), std::move(inner));
    }
    if (std::isdigit(static_cast<unsigned char>(c)) || c == '.') {
      std::size_t start = pos_;
      while (pos_ < text_.size() &&
             (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
              text_[pos_] == '.')) {
        ++pos_;
      }
      // Scientific notation ("2.5e-05", "1e+06").
      if (pos_ < text_.size() &&
          (text_[pos_] == 'e' || text_[pos_] == 'E')) {
        std::size_t mark = pos_ + 1;
        if (mark < text_.size() &&
            (text_[mark] == '+' || text_[mark] == '-')) {
          ++mark;
        }
        if (mark < text_.size() &&
            std::isdigit(static_cast<unsigned char>(text_[mark]))) {
          pos_ = mark;
          while (pos_ < text_.size() &&
                 std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
            ++pos_;
          }
        }
      }
      std::string literal(text_.substr(start, pos_ - start));
      char* end = nullptr;
      double value = std::strtod(literal.c_str(), &end);
      if (end == literal.c_str() || *end != '\0') {
        return Status::ParseError("bad number literal '" + literal + "'");
      }
      bool percent = false;
      if (pos_ < text_.size() && text_[pos_] == '%') {
        percent = true;
        ++pos_;
      }
      height = 0;
      return Equation::Number(value, percent);
    }
    return Status::ParseError(std::string("unexpected character '") + c +
                              "' in equation");
  }

  /// Enters one parenthesis or unary minus. The descent recurses once per
  /// level, so unbounded nesting would exhaust the stack; an error leaves
  /// depth_ raised, but it also ends the parse.
  Status Descend() {
    if (++depth_ > Equation::kMaxNesting) {
      return Status::ParseError("equation nested too deeply");
    }
    return Status::OK();
  }

  /// Sets `height` to that of a node over children of heights `height` and
  /// `other`. Evaluate, ToString and the destructor recurse once per level,
  /// so a flat chain ("1+1+...+1") is bounded here, where the parser's own
  /// descent is not.
  static Status Join(int& height, int other) {
    height = std::max(height, other) + 1;
    if (height > Equation::kMaxNesting) {
      return Status::ParseError("equation nested too deeply");
    }
    return Status::OK();
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  int depth_ = 0;
};

}  // namespace

Equation Equation::Number(double value, bool percent) {
  Equation e;
  e.op_ = 0;
  e.value_ = value;
  e.percent_ = percent;
  return e;
}

Equation Equation::Binary(char op, Equation lhs, Equation rhs) {
  Equation e;
  e.op_ = op;
  e.children_.push_back(std::move(lhs));
  e.children_.push_back(std::move(rhs));
  return e;
}

Result<Equation> Equation::Parse(std::string_view text) {
  if (text.empty()) return Status::ParseError("empty equation");
  Parser parser(text);
  return parser.Run();
}

Result<double> Equation::Evaluate() const {
  if (is_number()) {
    return percent_ ? value_ / 100.0 : value_;
  }
  DIMQR_ASSIGN_OR_RETURN(double lhs, children_[0].Evaluate());
  DIMQR_ASSIGN_OR_RETURN(double rhs, children_[1].Evaluate());
  switch (op_) {
    case '+':
      return lhs + rhs;
    case '-':
      return lhs - rhs;
    case '*':
      return lhs * rhs;
    case '/':
      if (rhs == 0.0) return Status::InvalidArgument("division by zero");
      return lhs / rhs;
    default:
      return Status::Internal("corrupt equation node");
  }
}

int Equation::OperationCount() const {
  if (is_number()) return 0;
  return 1 + children_[0].OperationCount() + children_[1].OperationCount();
}

std::string Equation::ToString() const {
  if (is_number()) {
    std::string out = FormatNumber(value_);
    if (percent_) out += '%';
    return out;
  }
  auto render_child = [this](const Equation& child, bool right) {
    std::string s = child.ToString();
    bool needs_parens = false;
    if (!child.is_number()) {
      int parent_prec = Precedence(op_);
      int child_prec = Precedence(child.op_);
      if (child_prec < parent_prec) {
        needs_parens = true;
      } else if (child_prec == parent_prec && right &&
                 (op_ == '-' || op_ == '/')) {
        needs_parens = true;
      }
    }
    return needs_parens ? "(" + s + ")" : s;
  };
  return render_child(children_[0], false) + op_ +
         render_child(children_[1], true);
}

bool EquationAnswersMatch(std::string_view equation_text, double answer,
                          double relative_tolerance) {
  Result<Equation> parsed = Equation::Parse(equation_text);
  if (!parsed.ok()) return false;
  Result<double> value = parsed->Evaluate();
  if (!value.ok()) return false;
  double tolerance =
      relative_tolerance * std::max(1.0, std::fabs(answer));
  return std::fabs(*value - answer) <= tolerance;
}

}  // namespace dimqr::mwp
