#include "cypher/parser.h"

#include <algorithm>
#include <cassert>

#include "common/strings.h"
#include "cypher/lexer.h"

namespace gradoop::cypher {

namespace {

// Keywords that must not be mistaken for a bare variable reference in an
// expression (true/false/null are handled as literals before this check).
bool IsReservedWord(const std::string& text) {
  static const char* kReserved[] = {"MATCH", "WHERE",    "RETURN", "LIMIT",
                                    "AS",    "DISTINCT", "AND",    "OR",
                                    "XOR",   "NOT"};
  for (const char* kw : kReserved) {
    if (EqualsIgnoreCase(text, kw)) return true;
  }
  return false;
}

class Parser {
 public:
  explicit Parser(std::vector<Token> tokens) : tokens_(std::move(tokens)) {}

  Result<CypherQuery> Parse() {
    CypherQuery query;
    if (!ConsumeKeyword("MATCH")) {
      return Error("expected MATCH");
    }
    for (;;) {
      GRADOOP_ASSIGN_OR_RETURN(PatternPath path, ParsePath());
      query.paths.push_back(std::move(path));
      if (!Consume(TokenKind::kComma)) break;
      // Allow `MATCH p1, ..., MATCH`-free continuation only; a comma must
      // be followed by another path.
    }
    if (ConsumeKeyword("WHERE")) {
      GRADOOP_ASSIGN_OR_RETURN(ExpressionPtr where, ParseExpression());
      query.where = std::move(where);
    }
    if (!ConsumeKeyword("RETURN")) {
      return Error("expected RETURN");
    }
    if (ConsumeKeyword("DISTINCT")) query.return_distinct = true;
    if (Consume(TokenKind::kStar)) {
      query.return_all = true;
    } else {
      for (;;) {
        GRADOOP_ASSIGN_OR_RETURN(ReturnItem item, ParseReturnItem());
        query.return_items.push_back(std::move(item));
        if (!Consume(TokenKind::kComma)) break;
      }
    }
    if (ConsumeKeyword("LIMIT")) {
      if (Peek().kind != TokenKind::kInteger) {
        return Error("expected a count after LIMIT");
      }
      query.limit = Advance().int_value;
      if (query.limit < 0) return Error("LIMIT must be non-negative");
    }
    if (Peek().kind != TokenKind::kEof) {
      return Error("unexpected trailing input");
    }
    return query;
  }

 private:
  const Token& Peek(int ahead = 0) const {
    const size_t i = pos_ + ahead;
    return i < tokens_.size() ? tokens_[i] : tokens_.back();
  }

  const Token& Advance() {
    const Token& t = tokens_[pos_];
    if (pos_ + 1 < tokens_.size()) ++pos_;
    return t;
  }

  // Span of the most recently consumed token.
  SourceSpan PrevSpan() const {
    return pos_ > 0 ? tokens_[pos_ - 1].span : SourceSpan{};
  }

  bool Consume(TokenKind kind) {
    if (Peek().kind != kind) return false;
    Advance();
    return true;
  }

  bool PeekKeyword(const char* kw, int ahead = 0) const {
    const Token& t = Peek(ahead);
    return t.kind == TokenKind::kIdentifier && EqualsIgnoreCase(t.text, kw);
  }

  bool ConsumeKeyword(const char* kw) {
    if (!PeekKeyword(kw)) return false;
    Advance();
    return true;
  }

  Status Error(const std::string& what) const {
    const Token& t = Peek();
    return Status::ParseError(what + " (got " + TokenKindName(t.kind) +
                              (t.text.empty() ? "" : " '" + t.text + "'") +
                              " at " + t.span.ToString() + ")");
  }

  std::string FreshVariable(const char* prefix) {
    return std::string("  __") + prefix + std::to_string(anon_counter_++);
  }

  // path := node (rel node)*
  Result<PatternPath> ParsePath() {
    PatternPath path;
    GRADOOP_ASSIGN_OR_RETURN(path.start, ParseNode());
    path.span = path.start.span;
    while (Peek().kind == TokenKind::kDash || Peek().kind == TokenKind::kLt) {
      GRADOOP_ASSIGN_OR_RETURN(RelationshipPattern rel, ParseRelationship());
      GRADOOP_ASSIGN_OR_RETURN(NodePattern node, ParseNode());
      path.span = SourceSpan::Cover(path.span, node.span);
      path.steps.emplace_back(std::move(rel), std::move(node));
    }
    return path;
  }

  // node := '(' [var] [':' label ('|' label)*] [props] ')'
  Result<NodePattern> ParseNode() {
    if (Peek().kind != TokenKind::kLeftParen) {
      return Error("expected '(' to start a node pattern");
    }
    const SourceSpan open = Advance().span;
    NodePattern node;
    if (Peek().kind == TokenKind::kIdentifier) {
      const Token& var = Advance();
      node.variable = var.text;
      node.variable_span = var.span;
    }
    if (Consume(TokenKind::kColon)) {
      GRADOOP_ASSIGN_OR_RETURN(node.labels, ParseLabelAlternation());
    }
    if (Peek().kind == TokenKind::kLeftBrace) {
      GRADOOP_ASSIGN_OR_RETURN(node.properties, ParsePropertyMap());
    }
    if (!Consume(TokenKind::kRightParen)) {
      return Error("expected ')' to close a node pattern");
    }
    node.span = SourceSpan::Cover(open, PrevSpan());
    if (node.variable.empty()) node.variable = FreshVariable("v");
    return node;
  }

  // rel := ('-'|'<-') '[' ... ']' ('->'|'-')
  Result<RelationshipPattern> ParseRelationship() {
    RelationshipPattern rel;
    bool left_arrow = false;
    const SourceSpan open = Peek().span;
    if (Consume(TokenKind::kLt)) {
      left_arrow = true;
      if (!Consume(TokenKind::kDash)) {
        return Error("expected '-' after '<' in a relationship pattern");
      }
    } else if (!Consume(TokenKind::kDash)) {
      return Error("expected '-' to start a relationship pattern");
    }

    if (Consume(TokenKind::kLeftBracket)) {
      if (Peek().kind == TokenKind::kIdentifier) {
        const Token& var = Advance();
        rel.variable = var.text;
        rel.variable_span = var.span;
      }
      if (Consume(TokenKind::kColon)) {
        GRADOOP_ASSIGN_OR_RETURN(rel.types, ParseLabelAlternation());
      }
      if (Peek().kind == TokenKind::kStar) {
        const SourceSpan star = Advance().span;
        // `*`, `*n`, `*l..u`, `*..u`
        rel.lower_bound = 1;
        rel.upper_bound = RelationshipPattern::kDefaultUpperBound;
        bool have_lower = false;
        if (Peek().kind == TokenKind::kInteger) {
          rel.lower_bound = static_cast<int>(Advance().int_value);
          have_lower = true;
          rel.upper_bound = rel.lower_bound;  // `*n` = exactly n
        }
        if (Consume(TokenKind::kDotDot)) {
          rel.upper_bound = RelationshipPattern::kDefaultUpperBound;
          if (Peek().kind == TokenKind::kInteger) {
            rel.upper_bound = static_cast<int>(Advance().int_value);
          }
          if (!have_lower) rel.lower_bound = 1;
        }
        rel.bounds_span = SourceSpan::Cover(star, PrevSpan());
        // Bound sanity (lower <= upper, non-negative) is a semantic check:
        // the analyzer reports it with a stable diagnostic code.
      }
      if (Peek().kind == TokenKind::kLeftBrace) {
        GRADOOP_ASSIGN_OR_RETURN(rel.properties, ParsePropertyMap());
      }
      if (!Consume(TokenKind::kRightBracket)) {
        return Error("expected ']' to close a relationship pattern");
      }
    }

    bool right_arrow = false;
    if (!Consume(TokenKind::kDash)) {
      return Error("expected '-' after a relationship pattern");
    }
    if (Consume(TokenKind::kGt)) right_arrow = true;
    rel.span = SourceSpan::Cover(open, PrevSpan());

    if (left_arrow && right_arrow) {
      return Error("a relationship cannot point both ways");
    }
    rel.direction = left_arrow    ? PatternDirection::kIncoming
                    : right_arrow ? PatternDirection::kOutgoing
                                  : PatternDirection::kUndirected;
    if (rel.variable.empty()) rel.variable = FreshVariable("e");
    return rel;
  }

  // A repeated label is kept once, at its first occurrence: the scans
  // read one dataset per listed label, so `:Post|Post` would otherwise
  // match every Post twice.
  Result<std::vector<std::string>> ParseLabelAlternation() {
    std::vector<std::string> labels;
    if (Peek().kind != TokenKind::kIdentifier) {
      return Error("expected a label name after ':'");
    }
    labels.push_back(Advance().text);
    while (Consume(TokenKind::kPipe)) {
      if (Peek().kind != TokenKind::kIdentifier) {
        return Error("expected a label name after '|'");
      }
      std::string label = Advance().text;
      if (std::find(labels.begin(), labels.end(), label) == labels.end()) {
        labels.push_back(std::move(label));
      }
    }
    return labels;
  }

  Result<std::vector<std::pair<std::string, epgm::PropertyValue>>>
  ParsePropertyMap() {
    std::vector<std::pair<std::string, epgm::PropertyValue>> props;
    if (!Consume(TokenKind::kLeftBrace)) {
      return Error("expected '{'");
    }
    if (!Consume(TokenKind::kRightBrace)) {
      for (;;) {
        if (Peek().kind != TokenKind::kIdentifier) {
          return Error("expected a property key");
        }
        const std::string key = Advance().text;
        if (!Consume(TokenKind::kColon)) {
          return Error("expected ':' after property key");
        }
        GRADOOP_ASSIGN_OR_RETURN(epgm::PropertyValue value, ParseLiteral());
        props.emplace_back(key, std::move(value));
        if (Consume(TokenKind::kRightBrace)) break;
        if (!Consume(TokenKind::kComma)) {
          return Error("expected ',' or '}' in property map");
        }
      }
    }
    return props;
  }

  Result<epgm::PropertyValue> ParseLiteral() {
    const Token& t = Peek();
    switch (t.kind) {
      case TokenKind::kString:
        Advance();
        return epgm::PropertyValue(t.text);
      case TokenKind::kInteger:
        Advance();
        return epgm::PropertyValue(t.int_value);
      case TokenKind::kFloat:
        Advance();
        return epgm::PropertyValue(t.float_value);
      case TokenKind::kDash: {
        // Negative numeric literal.
        Advance();
        const Token& num = Peek();
        if (num.kind == TokenKind::kInteger) {
          Advance();
          return epgm::PropertyValue(-num.int_value);
        }
        if (num.kind == TokenKind::kFloat) {
          Advance();
          return epgm::PropertyValue(-num.float_value);
        }
        return Error("expected a number after '-'");
      }
      case TokenKind::kIdentifier:
        if (EqualsIgnoreCase(t.text, "true")) {
          Advance();
          return epgm::PropertyValue(true);
        }
        if (EqualsIgnoreCase(t.text, "false")) {
          Advance();
          return epgm::PropertyValue(false);
        }
        if (EqualsIgnoreCase(t.text, "null")) {
          Advance();
          return epgm::PropertyValue::Null();
        }
        return Error("expected a literal");
      default:
        return Error("expected a literal");
    }
  }

  // expr := xor_expr (OR xor_expr)*
  Result<ExpressionPtr> ParseExpression() {
    GRADOOP_ASSIGN_OR_RETURN(ExpressionPtr lhs, ParseXor());
    while (ConsumeKeyword("OR")) {
      GRADOOP_ASSIGN_OR_RETURN(ExpressionPtr rhs, ParseXor());
      lhs = Expression::Or(std::move(lhs), std::move(rhs));
    }
    return lhs;
  }

  Result<ExpressionPtr> ParseXor() {
    GRADOOP_ASSIGN_OR_RETURN(ExpressionPtr lhs, ParseAnd());
    while (ConsumeKeyword("XOR")) {
      GRADOOP_ASSIGN_OR_RETURN(ExpressionPtr rhs, ParseAnd());
      lhs = Expression::Xor(std::move(lhs), std::move(rhs));
    }
    return lhs;
  }

  Result<ExpressionPtr> ParseAnd() {
    GRADOOP_ASSIGN_OR_RETURN(ExpressionPtr lhs, ParseNot());
    while (ConsumeKeyword("AND")) {
      GRADOOP_ASSIGN_OR_RETURN(ExpressionPtr rhs, ParseNot());
      lhs = Expression::And(std::move(lhs), std::move(rhs));
    }
    return lhs;
  }

  Result<ExpressionPtr> ParseNot() {
    if (PeekKeyword("NOT")) {
      const SourceSpan not_span = Advance().span;
      GRADOOP_ASSIGN_OR_RETURN(ExpressionPtr operand, ParseNot());
      const SourceSpan covered =
          SourceSpan::Cover(not_span, operand->span());
      return Expression::Not(std::move(operand), covered);
    }
    return ParseComparison();
  }

  Result<ExpressionPtr> ParseComparison() {
    GRADOOP_ASSIGN_OR_RETURN(ExpressionPtr lhs, ParseValueTerm());
    ComparisonOp op;
    switch (Peek().kind) {
      case TokenKind::kEq:
        op = ComparisonOp::kEq;
        break;
      case TokenKind::kNeq:
        op = ComparisonOp::kNeq;
        break;
      case TokenKind::kLt:
        op = ComparisonOp::kLt;
        break;
      case TokenKind::kLte:
        op = ComparisonOp::kLte;
        break;
      case TokenKind::kGt:
        op = ComparisonOp::kGt;
        break;
      case TokenKind::kGte:
        op = ComparisonOp::kGte;
        break;
      default:
        return lhs;  // bare boolean term
    }
    Advance();
    GRADOOP_ASSIGN_OR_RETURN(ExpressionPtr rhs, ParseValueTerm());
    return Expression::Comparison(op, std::move(lhs), std::move(rhs));
  }

  // value_term := literal | var '.' key | var | '(' expr ')'
  Result<ExpressionPtr> ParseValueTerm() {
    const Token& t = Peek();
    if (t.kind == TokenKind::kLeftParen) {
      Advance();
      GRADOOP_ASSIGN_OR_RETURN(ExpressionPtr inner, ParseExpression());
      if (!Consume(TokenKind::kRightParen)) {
        return Error("expected ')'");
      }
      return inner;
    }
    if (t.kind == TokenKind::kIdentifier && !EqualsIgnoreCase(t.text, "true") &&
        !EqualsIgnoreCase(t.text, "false") &&
        !EqualsIgnoreCase(t.text, "null")) {
      if (IsReservedWord(t.text)) {
        return Error("expected a value");
      }
      const Token& var = Advance();
      const std::string variable = var.text;
      const SourceSpan var_span = var.span;
      if (!Consume(TokenKind::kDot)) {
        // Bare element reference: only meaningful inside `a = b` / `a <> b`
        // comparisons, which semantic analysis folds or rejects.
        return Expression::Variable(variable, var_span);
      }
      if (Peek().kind != TokenKind::kIdentifier) {
        return Error("expected a property key after '.'");
      }
      const Token& key = Advance();
      return Expression::PropertyAccess(variable, key.text,
                                        SourceSpan::Cover(var_span, key.span));
    }
    const SourceSpan start = Peek().span;
    GRADOOP_ASSIGN_OR_RETURN(epgm::PropertyValue lit, ParseLiteral());
    return Expression::Literal(std::move(lit),
                               SourceSpan::Cover(start, PrevSpan()));
  }

  Result<ReturnItem> ParseReturnItem() {
    if (Peek().kind != TokenKind::kIdentifier) {
      return Error("expected a variable in RETURN");
    }
    ReturnItem item;
    const Token& var = Advance();
    item.variable = var.text;
    item.span = var.span;
    if (Consume(TokenKind::kDot)) {
      if (Peek().kind != TokenKind::kIdentifier) {
        return Error("expected a property key after '.'");
      }
      item.property_key = Advance().text;
      item.span = SourceSpan::Cover(item.span, PrevSpan());
    }
    if (ConsumeKeyword("AS")) {
      if (Peek().kind != TokenKind::kIdentifier) {
        return Error("expected an alias after AS");
      }
      item.alias = Advance().text;
    }
    return item;
  }

  std::vector<Token> tokens_;
  size_t pos_ = 0;
  int anon_counter_ = 0;
};

}  // namespace

Result<CypherQuery> ParseCypher(const std::string& query_text) {
  GRADOOP_ASSIGN_OR_RETURN(std::vector<Token> tokens, Tokenize(query_text));
  Parser parser(std::move(tokens));
  return parser.Parse();
}

}  // namespace gradoop::cypher
