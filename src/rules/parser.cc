#include "rules/parser.h"

#include <cctype>
#include <cstdlib>
#include <memory>
#include <utility>

#include "util/string_util.h"

namespace mergepurge {

Result<std::vector<Token>> Tokenize(std::string_view source) {
  std::vector<Token> tokens;
  int line = 1;
  size_t i = 0;
  const size_t n = source.size();

  auto error = [&line](const std::string& msg) {
    return Status::ParseError(StringPrintf("line %d: %s", line, msg.c_str()));
  };

  while (i < n) {
    char c = source[i];
    if (c == '\n') {
      ++line;
      ++i;
      continue;
    }
    if (std::isspace(static_cast<unsigned char>(c))) {
      ++i;
      continue;
    }
    if (c == '#') {
      while (i < n && source[i] != '\n') ++i;
      continue;
    }
    if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
      size_t start = i;
      while (i < n && (std::isalnum(static_cast<unsigned char>(source[i])) ||
                       source[i] == '_' || source[i] == '-')) {
        ++i;
      }
      tokens.push_back({TokenKind::kIdentifier,
                        std::string(source.substr(start, i - start)), 0.0,
                        line});
      continue;
    }
    if (std::isdigit(static_cast<unsigned char>(c))) {
      size_t start = i;
      while (i < n && (std::isdigit(static_cast<unsigned char>(source[i])) ||
                       source[i] == '.')) {
        ++i;
      }
      std::string text(source.substr(start, i - start));
      tokens.push_back(
          {TokenKind::kNumber, text, std::strtod(text.c_str(), nullptr),
           line});
      continue;
    }
    if (c == '"') {
      ++i;
      std::string text;
      while (i < n && source[i] != '"') {
        if (source[i] == '\n') return error("unterminated string literal");
        text += source[i];
        ++i;
      }
      if (i == n) return error("unterminated string literal");
      ++i;  // Closing quote.
      tokens.push_back({TokenKind::kString, std::move(text), 0.0, line});
      continue;
    }
    switch (c) {
      case '.':
        tokens.push_back({TokenKind::kDot, ".", 0.0, line});
        ++i;
        continue;
      case ',':
        tokens.push_back({TokenKind::kComma, ",", 0.0, line});
        ++i;
        continue;
      case ':':
        tokens.push_back({TokenKind::kColon, ":", 0.0, line});
        ++i;
        continue;
      case '(':
        tokens.push_back({TokenKind::kLParen, "(", 0.0, line});
        ++i;
        continue;
      case ')':
        tokens.push_back({TokenKind::kRParen, ")", 0.0, line});
        ++i;
        continue;
      case '+':
      case '*':
      case '/':
        tokens.push_back({TokenKind::kArith, std::string(1, c), 0.0, line});
        ++i;
        continue;
      default:
        break;
    }
    // Operators.
    if (c == '=' || c == '!' || c == '<' || c == '>') {
      std::string op(1, c);
      if (i + 1 < n && source[i + 1] == '=') {
        op += '=';
        i += 2;
      } else {
        ++i;
      }
      if (op == "=" || op == "!") {
        return error("expected '" + op + "=' operator");
      }
      tokens.push_back({TokenKind::kOp, std::move(op), 0.0, line});
      continue;
    }
    return error(StringPrintf("unexpected character '%c'", c));
  }
  tokens.push_back({TokenKind::kEnd, "", 0.0, line});
  return tokens;
}


namespace {

class Parser {
 public:
  explicit Parser(std::vector<Token> tokens) : tokens_(std::move(tokens)) {}

  Result<RuleProgramAst> ParseProgram() {
    RuleProgramAst program;
    while (!AtEnd()) {
      if (CheckIdent("merge")) {
        Result<MergeDirective> directive = ParseMergeDirective();
        if (!directive.ok()) return directive.status();
        program.merge_directives.push_back(std::move(*directive));
        continue;
      }
      Result<Rule> rule = ParseRule();
      if (!rule.ok()) return rule.status();
      program.rules.push_back(std::move(*rule));
    }
    if (program.rules.empty()) {
      return Status::ParseError("rule program contains no rules");
    }
    return program;
  }

 private:
  const Token& Peek() const { return tokens_[pos_]; }
  const Token& Advance() { return tokens_[pos_++]; }
  bool AtEnd() const { return Peek().kind == TokenKind::kEnd; }

  bool CheckIdent(std::string_view word) const {
    return Peek().kind == TokenKind::kIdentifier && Peek().text == word;
  }

  Status Error(const std::string& msg) const {
    return Status::ParseError(
        StringPrintf("line %d: %s (near '%s')", Peek().line, msg.c_str(),
                     Peek().text.c_str()));
  }

  Status ExpectIdent(std::string_view word) {
    if (!CheckIdent(word)) {
      return Error(StringPrintf("expected '%.*s'",
                                static_cast<int>(word.size()), word.data()));
    }
    Advance();
    return Status::OK();
  }

  Status Expect(TokenKind kind, const char* what) {
    if (Peek().kind != kind) {
      return Error(StringPrintf("expected %s", what));
    }
    Advance();
    return Status::OK();
  }

  // merge <field>: prefer <strategy>
  Result<MergeDirective> ParseMergeDirective() {
    MergeDirective directive;
    directive.source_line = Peek().line;
    MERGEPURGE_RETURN_NOT_OK(ExpectIdent("merge"));
    if (Peek().kind != TokenKind::kIdentifier) {
      return Error("expected field name after 'merge'");
    }
    directive.field_name = Advance().text;
    MERGEPURGE_RETURN_NOT_OK(Expect(TokenKind::kColon, "':'"));
    MERGEPURGE_RETURN_NOT_OK(ExpectIdent("prefer"));
    if (Peek().kind != TokenKind::kIdentifier) {
      return Error("expected merge strategy after 'prefer'");
    }
    directive.strategy_name = Advance().text;
    return directive;
  }

  Result<Rule> ParseRule() {
    Rule rule;
    rule.source_line = Peek().line;
    MERGEPURGE_RETURN_NOT_OK(ExpectIdent("rule"));
    if (Peek().kind != TokenKind::kIdentifier) {
      return Error("expected rule name");
    }
    rule.name = Advance().text;
    MERGEPURGE_RETURN_NOT_OK(Expect(TokenKind::kColon, "':'"));
    MERGEPURGE_RETURN_NOT_OK(ExpectIdent("if"));

    Result<std::unique_ptr<BoolExpr>> condition = ParseOr();
    if (!condition.ok()) return condition.status();
    rule.condition = std::move(*condition);

    MERGEPURGE_RETURN_NOT_OK(ExpectIdent("then"));
    MERGEPURGE_RETURN_NOT_OK(ExpectIdent("match"));
    return rule;
  }

  // or-expr := and-expr ("or" and-expr)*
  Result<std::unique_ptr<BoolExpr>> ParseOr() {
    Result<std::unique_ptr<BoolExpr>> first = ParseAnd();
    if (!first.ok()) return first.status();
    if (!CheckIdent("or")) return first;

    auto node = std::make_unique<BoolExpr>();
    node->kind = BoolKind::kOr;
    node->source_line = (*first)->source_line;
    node->children.push_back(std::move(*first));
    while (CheckIdent("or")) {
      Advance();
      Result<std::unique_ptr<BoolExpr>> next = ParseAnd();
      if (!next.ok()) return next.status();
      node->children.push_back(std::move(*next));
    }
    return node;
  }

  // and-expr := unary ("and" unary)*
  Result<std::unique_ptr<BoolExpr>> ParseAnd() {
    Result<std::unique_ptr<BoolExpr>> first = ParseUnary();
    if (!first.ok()) return first.status();
    if (!CheckIdent("and")) return first;

    auto node = std::make_unique<BoolExpr>();
    node->kind = BoolKind::kAnd;
    node->source_line = (*first)->source_line;
    node->children.push_back(std::move(*first));
    while (CheckIdent("and")) {
      Advance();
      Result<std::unique_ptr<BoolExpr>> next = ParseUnary();
      if (!next.ok()) return next.status();
      node->children.push_back(std::move(*next));
    }
    return node;
  }

  // unary := "not" unary | "(" or-expr ")" | comparison
  //
  // A '(' opens a grouped condition or a number expression ("(a + b) / c
  // >= 0.9"). A group followed by an operator was the latter, so it is
  // parsed again as a comparison. (A number expression also parses as a
  // group, so a failed group is a real error.)
  Result<std::unique_ptr<BoolExpr>> ParseUnary() {
    if (CheckIdent("not")) {
      int line = Peek().line;
      Advance();
      Result<std::unique_ptr<BoolExpr>> child = ParseUnary();
      if (!child.ok()) return child.status();
      auto node = std::make_unique<BoolExpr>();
      node->kind = BoolKind::kNot;
      node->source_line = line;
      node->children.push_back(std::move(*child));
      return node;
    }
    if (Peek().kind == TokenKind::kLParen) {
      const size_t start = pos_;
      Advance();
      Result<std::unique_ptr<BoolExpr>> inner = ParseOr();
      if (!inner.ok()) return inner.status();
      MERGEPURGE_RETURN_NOT_OK(Expect(TokenKind::kRParen, "')'"));
      if (Peek().kind != TokenKind::kOp && Peek().kind != TokenKind::kArith) {
        return inner;
      }
      pos_ = start;
    }
    return ParseComparison();
  }

  // comparison := expr (op expr)?
  Result<std::unique_ptr<BoolExpr>> ParseComparison() {
    Result<std::unique_ptr<Expr>> lhs = ParseExpr();
    if (!lhs.ok()) return lhs.status();

    auto node = std::make_unique<BoolExpr>();
    node->source_line = (*lhs)->source_line;
    node->lhs = std::move(*lhs);
    if (Peek().kind != TokenKind::kOp) {
      node->kind = BoolKind::kBare;
      return node;
    }

    node->kind = BoolKind::kCompare;
    const std::string& op = Advance().text;
    if (op == "==") {
      node->op = CompareOp::kEq;
    } else if (op == "!=") {
      node->op = CompareOp::kNe;
    } else if (op == "<") {
      node->op = CompareOp::kLt;
    } else if (op == "<=") {
      node->op = CompareOp::kLe;
    } else if (op == ">") {
      node->op = CompareOp::kGt;
    } else if (op == ">=") {
      node->op = CompareOp::kGe;
    } else {
      return Error("unknown operator '" + op + "'");
    }
    Result<std::unique_ptr<Expr>> rhs = ParseExpr();
    if (!rhs.ok()) return rhs.status();
    node->rhs = std::move(*rhs);
    return node;
  }

  // expr := product ("+" product)*
  // product := primary (("*" | "/") primary)*
  Result<std::unique_ptr<Expr>> ParseExpr() { return ParseArith(0); }

  // Left-associative binary operators at `level` (0: +, 1: * and /).
  Result<std::unique_ptr<Expr>> ParseArith(int level) {
    Result<std::unique_ptr<Expr>> lhs =
        level == 0 ? ParseArith(1) : ParsePrimary();
    if (!lhs.ok()) return lhs.status();
    std::unique_ptr<Expr> expr = std::move(*lhs);
    while (Peek().kind == TokenKind::kArith &&
           (Peek().text == "+") == (level == 0)) {
      auto node = std::make_unique<Expr>();
      node->kind = ExprKind::kArith;
      node->source_line = expr->source_line;
      const std::string& op = Advance().text;
      node->arith_op = op == "+"   ? ArithOp::kAdd
                       : op == "*" ? ArithOp::kMul
                                   : ArithOp::kDiv;
      Result<std::unique_ptr<Expr>> rhs =
          level == 0 ? ParseArith(1) : ParsePrimary();
      if (!rhs.ok()) return rhs.status();
      node->args.push_back(std::move(expr));
      node->args.push_back(std::move(*rhs));
      expr = std::move(node);
    }
    return expr;
  }

  // primary := number | string | r1.field | r2.field
  //          | name "(" [expr ("," expr)*] ")" | "(" expr ")"
  Result<std::unique_ptr<Expr>> ParsePrimary() {
    const Token& token = Peek();
    switch (token.kind) {
      case TokenKind::kNumber: {
        auto expr = std::make_unique<Expr>();
        expr->kind = ExprKind::kNumberLiteral;
        expr->source_line = token.line;
        expr->number_value = Advance().number;
        return expr;
      }
      case TokenKind::kString: {
        auto expr = std::make_unique<Expr>();
        expr->kind = ExprKind::kStringLiteral;
        expr->source_line = token.line;
        expr->string_value = Advance().text;
        return expr;
      }
      case TokenKind::kIdentifier:
        break;
      case TokenKind::kLParen: {
        Advance();
        Result<std::unique_ptr<Expr>> inner = ParseExpr();
        if (!inner.ok()) return inner.status();
        MERGEPURGE_RETURN_NOT_OK(Expect(TokenKind::kRParen, "')'"));
        return inner;
      }
      default:
        return Error("expected expression");
    }

    // r1.field / r2.field.
    if (token.text == "r1" || token.text == "r2") {
      int record_index = token.text == "r1" ? 1 : 2;
      int line = token.line;
      Advance();
      MERGEPURGE_RETURN_NOT_OK(Expect(TokenKind::kDot, "'.'"));
      if (Peek().kind != TokenKind::kIdentifier) {
        return Error("expected field name after '.'");
      }
      auto expr = std::make_unique<Expr>();
      expr->kind = ExprKind::kFieldRef;
      expr->source_line = line;
      expr->record_index = record_index;
      expr->field_name = Advance().text;
      return expr;
    }

    // Function call.
    int line = token.line;
    std::string name = Advance().text;
    MERGEPURGE_RETURN_NOT_OK(
        Expect(TokenKind::kLParen, "'(' after function name"));
    auto expr = std::make_unique<Expr>();
    expr->kind = ExprKind::kFuncCall;
    expr->source_line = line;
    expr->func_name = std::move(name);
    if (Peek().kind != TokenKind::kRParen) {
      while (true) {
        Result<std::unique_ptr<Expr>> arg = ParseExpr();
        if (!arg.ok()) return arg.status();
        expr->args.push_back(std::move(*arg));
        if (Peek().kind == TokenKind::kComma) {
          Advance();
          continue;
        }
        break;
      }
    }
    MERGEPURGE_RETURN_NOT_OK(Expect(TokenKind::kRParen, "')'"));
    return expr;
  }

  std::vector<Token> tokens_;
  size_t pos_ = 0;
};

}  // namespace

Result<RuleProgramAst> ParseRuleProgram(std::string_view source) {
  Result<std::vector<Token>> tokens = Tokenize(source);
  if (!tokens.ok()) return tokens.status();
  Parser parser(std::move(*tokens));
  return parser.ParseProgram();
}

}  // namespace mergepurge
