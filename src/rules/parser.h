// Tokenizer and recursive-descent parser for the rule language (grammar in
// ast.h). Line comments start with '#'.

#ifndef MERGEPURGE_RULES_PARSER_H_
#define MERGEPURGE_RULES_PARSER_H_

#include <string>
#include <string_view>
#include <vector>

#include "rules/ast.h"
#include "util/status.h"

namespace mergepurge {

enum class TokenKind {
  kIdentifier,  // rule names, keywords, function names; '-' allowed inside.
  kNumber,
  kString,      // "double quoted"
  kDot,
  kComma,
  kColon,
  kLParen,
  kRParen,
  kOp,          // == != <= >= < >
  kArith,       // + * /
  kEnd,
};

struct Token {
  TokenKind kind;
  std::string text;
  double number = 0.0;
  int line = 0;
};

// Tokenizes the whole input; returns a ParseError with line info on any
// malformed token. The final token is always kEnd.
Result<std::vector<Token>> Tokenize(std::string_view source);

// Parses a whole rule program. Field names are left unresolved (bound to a
// schema later by RuleProgram::Compile).
Result<RuleProgramAst> ParseRuleProgram(std::string_view source);

}  // namespace mergepurge

#endif  // MERGEPURGE_RULES_PARSER_H_
