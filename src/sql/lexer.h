#pragma once

#include <string>
#include <vector>

#include "common/result.h"

namespace costdb {

/// Token kinds produced by the SQL lexer.
enum class TokenKind {
  kIdent,    // bare identifier or keyword (keywords matched case-insensitively
             // by the parser)
  kInt,      // integer literal
  kFloat,    // floating-point literal
  kString,   // 'quoted string' (quotes stripped, '' unescaped)
  kSymbol,   // operator/punctuation: = <> != < <= > >= + - * / ( ) , . ; ?
             // ('?' is the prepared-statement parameter placeholder)
  kEnd,      // end of input
};

struct Token {
  TokenKind kind = TokenKind::kEnd;
  std::string text;   // identifier text (original case), symbol, or literal
  int64_t int_val = 0;
  double float_val = 0.0;
  size_t offset = 0;  // byte offset in the SQL text, for error messages
};

/// Tokenize SQL text. Fails with InvalidArgument on unterminated strings,
/// unexpected bytes, or numeric literals out of range; never throws.
Result<std::vector<Token>> Tokenize(const std::string& sql);

/// Case-insensitive keyword comparison for identifier tokens.
bool TokenIs(const Token& t, const char* keyword);

}  // namespace costdb
