#include "core/unit_expr.h"

#include <algorithm>
#include <cctype>

namespace dimqr {
namespace {

enum class TokKind { kName, kTimes, kOver, kPower, kLParen, kRParen, kInt, kEnd };

/// One token; a name's text views the input.
struct Token {
  TokKind kind = TokKind::kEnd;
  std::string_view text;
  int value = 0;
};

Token MakeToken(TokKind kind, std::string_view text = {}, int value = 0) {
  return Token{kind, text, value};
}

/// Lexes a unit expression one token per call, so lexing stops where the
/// parser stops. Unit names may contain letters, digits after a leading
/// letter, '_', '-', and non-ASCII bytes (UTF-8 unit names).
class Lexer {
 public:
  explicit Lexer(std::string_view text) : text_(text) {}

  /// The next token; kEnd once the input is consumed.
  Result<Token> Next() {
    while (pos_ < text_.size() && (text_[pos_] == ' ' || text_[pos_] == '\t')) {
      ++pos_;
    }
    if (pos_ >= text_.size()) return MakeToken(TokKind::kEnd);
    char c = text_[pos_];
    // UTF-8 multiplication sign U+00D7 (0xC3 0x97) and division U+00F7
    // (0xC3 0xB7).
    if (static_cast<unsigned char>(c) == 0xC3 && pos_ + 1 < text_.size()) {
      auto next = static_cast<unsigned char>(text_[pos_ + 1]);
      if (next == 0x97 || next == 0xB7) {
        pos_ += 2;
        return MakeToken(next == 0x97 ? TokKind::kTimes : TokKind::kOver);
      }
    }
    switch (c) {
      case '*':
        ++pos_;
        return MakeToken(TokKind::kTimes);
      case '/':
        ++pos_;
        return MakeToken(TokKind::kOver);
      case '^':
        ++pos_;
        return MakeToken(TokKind::kPower);
      case '(':
        ++pos_;
        return MakeToken(TokKind::kLParen);
      case ')':
        ++pos_;
        return MakeToken(TokKind::kRParen);
      default:
        break;
    }
    if (c == '-' || c == '+' || std::isdigit(static_cast<unsigned char>(c))) {
      bool neg = c == '-';
      if (c == '-' || c == '+') ++pos_;
      if (pos_ >= text_.size() ||
          !std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
        return Status::ParseError("expected digits after sign");
      }
      int v = 0;
      while (pos_ < text_.size() &&
             std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
        v = v * 10 + (text_[pos_] - '0');
        if (v > 127) return Status::OutOfRange("exponent too large");
        ++pos_;
      }
      return MakeToken(TokKind::kInt, {}, neg ? -v : v);
    }
    if (IsNameChar(c, /*leading=*/true)) {
      const std::size_t begin = pos_;
      while (pos_ < text_.size() && IsNameChar(text_[pos_], false)) ++pos_;
      const std::string_view name = text_.substr(begin, pos_ - begin);
      // Lone 'x' between terms means multiplication; "per" means division.
      if (name == "x" || name == "X") return MakeToken(TokKind::kTimes);
      if (name == "per" || name == "PER" || name == "Per") {
        return MakeToken(TokKind::kOver);
      }
      return MakeToken(TokKind::kName, name);
    }
    return Status::ParseError(std::string("unexpected character '") + c +
                              "' in unit expression");
  }

 private:
  static bool IsNameChar(char c, bool leading) {
    auto u = static_cast<unsigned char>(c);
    if (u >= 0x80) return true;  // UTF-8 continuation/lead bytes
    if (std::isalpha(u) || c == '_' || c == '%') return true;
    if (!leading && (std::isdigit(u) || c == '-' || c == '.')) return true;
    return false;
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

}  // namespace

/// Recursive-descent parser over the lexer's tokens, one token of
/// lookahead: a refused input is lexed only as far as the parser read it.
class UnitExprParser {
 public:
  explicit UnitExprParser(std::string_view text) : lexer_(text) {}

  Result<UnitExpr> Parse() {
    DIMQR_RETURN_NOT_OK(Advance());
    int height = 0;
    DIMQR_ASSIGN_OR_RETURN(UnitExpr e, ParseExpr(height));
    if (next_.kind != TokKind::kEnd) {
      return Status::ParseError("trailing tokens in unit expression");
    }
    return e;
  }

 private:
  /// Replaces the lookahead with the input's next token.
  Status Advance() {
    DIMQR_ASSIGN_OR_RETURN(next_, lexer_.Next());
    return Status::OK();
  }

  // Each Parse* sets `height` to the height of the tree it returns: 0 for
  // a unit name, one more than the tallest child for an operator node.
  Result<UnitExpr> ParseExpr(int& height) {
    DIMQR_ASSIGN_OR_RETURN(UnitExpr lhs, ParseTerm(height));
    while (next_.kind == TokKind::kTimes || next_.kind == TokKind::kOver) {
      TokKind op = next_.kind;
      DIMQR_RETURN_NOT_OK(Advance());
      int rhs_height = 0;
      DIMQR_ASSIGN_OR_RETURN(UnitExpr rhs, ParseTerm(rhs_height));
      DIMQR_RETURN_NOT_OK(Join(height, rhs_height));
      UnitExpr node;
      node.kind_ =
          op == TokKind::kTimes ? UnitExpr::Kind::kTimes : UnitExpr::Kind::kOver;
      node.children_.push_back(std::move(lhs));
      node.children_.push_back(std::move(rhs));
      lhs = std::move(node);
    }
    return lhs;
  }

  Result<UnitExpr> ParseTerm(int& height) {
    DIMQR_ASSIGN_OR_RETURN(UnitExpr base, ParseFactor(height));
    if (next_.kind == TokKind::kPower) {
      DIMQR_RETURN_NOT_OK(Advance());
      if (next_.kind != TokKind::kInt) {
        return Status::ParseError("expected integer exponent after '^'");
      }
      int e = next_.value;
      DIMQR_RETURN_NOT_OK(Advance());
      DIMQR_RETURN_NOT_OK(Join(height, 0));
      UnitExpr node;
      node.kind_ = UnitExpr::Kind::kPower;
      node.exponent_ = e;
      node.children_.push_back(std::move(base));
      return node;
    }
    return base;
  }

  Result<UnitExpr> ParseFactor(int& height) {
    if (next_.kind == TokKind::kLParen) {
      // One recursion per level: bound it before the stack runs out. An
      // error leaves depth_ raised, but it also ends the parse.
      if (++depth_ > UnitExpr::kMaxNesting) {
        return Status::ParseError("unit expression nested too deeply");
      }
      DIMQR_RETURN_NOT_OK(Advance());
      DIMQR_ASSIGN_OR_RETURN(UnitExpr e, ParseExpr(height));
      --depth_;
      if (next_.kind != TokKind::kRParen) {
        return Status::ParseError("missing ')' in unit expression");
      }
      DIMQR_RETURN_NOT_OK(Advance());
      return e;
    }
    if (next_.kind == TokKind::kName) {
      height = 0;
      UnitExpr node;
      node.kind_ = UnitExpr::Kind::kUnit;
      node.name_ = std::string(next_.text);
      DIMQR_RETURN_NOT_OK(Advance());
      return node;
    }
    return Status::ParseError("expected unit name or '(' in unit expression");
  }

  /// Sets `height` to that of a node over children of heights `height` and
  /// `other`. Evaluate, ToString and the destructor recurse once per level,
  /// so a flat chain ("m*m*...*m") is bounded here, where the parser's own
  /// descent is not.
  static Status Join(int& height, int other) {
    height = std::max(height, other) + 1;
    if (height > UnitExpr::kMaxNesting) {
      return Status::ParseError("unit expression nested too deeply");
    }
    return Status::OK();
  }

  Lexer lexer_;
  Token next_;
  int depth_ = 0;
};

Result<UnitExpr> UnitExpr::Parse(std::string_view text) {
  if (text.empty()) return Status::ParseError("empty unit expression");
  UnitExprParser parser(text);
  return parser.Parse();
}

Result<UnitSemantics> UnitExpr::Evaluate(const UnitResolver& resolver) const {
  switch (kind_) {
    case Kind::kUnit:
      return resolver(name_);
    case Kind::kTimes: {
      DIMQR_ASSIGN_OR_RETURN(UnitSemantics a, children_[0].Evaluate(resolver));
      DIMQR_ASSIGN_OR_RETURN(UnitSemantics b, children_[1].Evaluate(resolver));
      return a.Times(b);
    }
    case Kind::kOver: {
      DIMQR_ASSIGN_OR_RETURN(UnitSemantics a, children_[0].Evaluate(resolver));
      DIMQR_ASSIGN_OR_RETURN(UnitSemantics b, children_[1].Evaluate(resolver));
      return a.Over(b);
    }
    case Kind::kPower: {
      DIMQR_ASSIGN_OR_RETURN(UnitSemantics a, children_[0].Evaluate(resolver));
      return a.Power(exponent_);
    }
  }
  return Status::Internal("corrupt unit expression node");
}

Result<Dimension> UnitExpr::EvaluateDimension(
    const UnitResolver& resolver) const {
  DIMQR_ASSIGN_OR_RETURN(UnitSemantics sem, Evaluate(resolver));
  return sem.dimension;
}

std::vector<std::string> UnitExpr::LeafUnits() const {
  std::vector<std::string> out;
  if (kind_ == Kind::kUnit) {
    out.push_back(name_);
    return out;
  }
  for (const UnitExpr& child : children_) {
    std::vector<std::string> sub = child.LeafUnits();
    out.insert(out.end(), sub.begin(), sub.end());
  }
  return out;
}

std::string UnitExpr::ToString() const {
  switch (kind_) {
    case Kind::kUnit:
      return name_;
    case Kind::kTimes:
      return "(" + children_[0].ToString() + "*" + children_[1].ToString() +
             ")";
    case Kind::kOver:
      return "(" + children_[0].ToString() + "/" + children_[1].ToString() +
             ")";
    case Kind::kPower:
      return children_[0].ToString() + "^" + std::to_string(exponent_);
  }
  return "?";
}

}  // namespace dimqr
