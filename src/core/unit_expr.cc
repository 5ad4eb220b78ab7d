#include "core/unit_expr.h"

#include <algorithm>
#include <cctype>

namespace dimqr {
namespace {

enum class TokKind { kName, kTimes, kOver, kPower, kLParen, kRParen, kInt, kEnd };

struct Token {
  TokKind kind;
  std::string text;
  int value = 0;
};

/// Lexes a unit expression. Unit names may contain letters, digits after a
/// leading letter, '_', '-', and non-ASCII bytes (UTF-8 unit names).
class Lexer {
 public:
  explicit Lexer(std::string_view text) : text_(text) {}

  Result<std::vector<Token>> Run() {
    std::vector<Token> out;
    while (pos_ < text_.size()) {
      char c = text_[pos_];
      if (c == ' ' || c == '\t') {
        ++pos_;
        continue;
      }
      if (c == '*') {
        out.push_back({TokKind::kTimes, "*"});
        ++pos_;
        continue;
      }
      // UTF-8 multiplication sign U+00D7 (0xC3 0x97) and division U+00F7
      // (0xC3 0xB7).
      if (static_cast<unsigned char>(c) == 0xC3 && pos_ + 1 < text_.size()) {
        auto next = static_cast<unsigned char>(text_[pos_ + 1]);
        if (next == 0x97) {
          out.push_back({TokKind::kTimes, "x"});
          pos_ += 2;
          continue;
        }
        if (next == 0xB7) {
          out.push_back({TokKind::kOver, "/"});
          pos_ += 2;
          continue;
        }
      }
      if (c == '/') {
        out.push_back({TokKind::kOver, "/"});
        ++pos_;
        continue;
      }
      if (c == '^') {
        out.push_back({TokKind::kPower, "^"});
        ++pos_;
        continue;
      }
      if (c == '(') {
        out.push_back({TokKind::kLParen, "("});
        ++pos_;
        continue;
      }
      if (c == ')') {
        out.push_back({TokKind::kRParen, ")"});
        ++pos_;
        continue;
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
        out.push_back({TokKind::kInt, "", neg ? -v : v});
        continue;
      }
      if (IsNameChar(c, /*leading=*/true)) {
        std::string name;
        while (pos_ < text_.size() && IsNameChar(text_[pos_], false)) {
          name += text_[pos_++];
        }
        // Lone 'x' between terms means multiplication; "per" means division.
        if (name == "x" || name == "X") {
          out.push_back({TokKind::kTimes, "x"});
        } else if (name == "per" || name == "PER" || name == "Per") {
          out.push_back({TokKind::kOver, "per"});
        } else {
          out.push_back({TokKind::kName, std::move(name)});
        }
        continue;
      }
      return Status::ParseError(std::string("unexpected character '") + c +
                                "' in unit expression");
    }
    out.push_back({TokKind::kEnd, ""});
    return out;
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

/// Recursive-descent parser over the token stream.
class UnitExprParser {
 public:
  explicit UnitExprParser(std::vector<Token> tokens)
      : tokens_(std::move(tokens)) {}

  Result<UnitExpr> Parse() {
    int height = 0;
    DIMQR_ASSIGN_OR_RETURN(UnitExpr e, ParseExpr(height));
    if (Peek().kind != TokKind::kEnd) {
      return Status::ParseError("trailing tokens in unit expression");
    }
    return e;
  }

 private:
  const Token& Peek() const { return tokens_[pos_]; }
  Token Take() { return tokens_[pos_++]; }

  // Each Parse* sets `height` to the height of the tree it returns: 0 for
  // a unit name, one more than the tallest child for an operator node.
  Result<UnitExpr> ParseExpr(int& height) {
    DIMQR_ASSIGN_OR_RETURN(UnitExpr lhs, ParseTerm(height));
    while (Peek().kind == TokKind::kTimes || Peek().kind == TokKind::kOver) {
      TokKind op = Take().kind;
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
    if (Peek().kind == TokKind::kPower) {
      Take();
      if (Peek().kind != TokKind::kInt) {
        return Status::ParseError("expected integer exponent after '^'");
      }
      int e = Take().value;
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
    if (Peek().kind == TokKind::kLParen) {
      Take();
      // One recursion per level: bound it before the stack runs out. An
      // error leaves depth_ raised, but it also ends the parse.
      if (++depth_ > UnitExpr::kMaxNesting) {
        return Status::ParseError("unit expression nested too deeply");
      }
      DIMQR_ASSIGN_OR_RETURN(UnitExpr e, ParseExpr(height));
      --depth_;
      if (Peek().kind != TokKind::kRParen) {
        return Status::ParseError("missing ')' in unit expression");
      }
      Take();
      return e;
    }
    if (Peek().kind == TokKind::kName) {
      height = 0;
      UnitExpr node;
      node.kind_ = UnitExpr::Kind::kUnit;
      node.name_ = Take().text;
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

  std::vector<Token> tokens_;
  std::size_t pos_ = 0;
  int depth_ = 0;
};

Result<UnitExpr> UnitExpr::Parse(std::string_view text) {
  if (text.empty()) return Status::ParseError("empty unit expression");
  Lexer lexer(text);
  DIMQR_ASSIGN_OR_RETURN(std::vector<Token> tokens, lexer.Run());
  UnitExprParser parser(std::move(tokens));
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
