#include "sql/lexer.h"

#include <cctype>
#include <cerrno>
#include <cstdlib>

namespace costdb {

Result<std::vector<Token>> Tokenize(const std::string& sql) {
  std::vector<Token> tokens;
  size_t i = 0;
  const size_t n = sql.size();
  while (i < n) {
    char c = sql[i];
    if (std::isspace(static_cast<unsigned char>(c))) {
      ++i;
      continue;
    }
    Token t;
    t.offset = i;
    if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
      size_t start = i;
      while (i < n && (std::isalnum(static_cast<unsigned char>(sql[i])) ||
                       sql[i] == '_')) {
        ++i;
      }
      t.kind = TokenKind::kIdent;
      t.text = sql.substr(start, i - start);
      tokens.push_back(std::move(t));
      continue;
    }
    if (std::isdigit(static_cast<unsigned char>(c))) {
      size_t start = i;
      bool is_float = false;
      while (i < n && std::isdigit(static_cast<unsigned char>(sql[i]))) ++i;
      if (i < n && sql[i] == '.' && i + 1 < n &&
          std::isdigit(static_cast<unsigned char>(sql[i + 1]))) {
        is_float = true;
        ++i;
        while (i < n && std::isdigit(static_cast<unsigned char>(sql[i]))) ++i;
      }
      std::string text = sql.substr(start, i - start);
      errno = 0;
      if (is_float) {
        t.kind = TokenKind::kFloat;
        t.float_val = std::strtod(text.c_str(), nullptr);
      } else {
        t.kind = TokenKind::kInt;
        t.int_val = std::strtoll(text.c_str(), nullptr, 10);
      }
      // An integer past int64, or a float that overflows or underflows a
      // double, is malformed input rather than a fatal exception.
      if (errno == ERANGE) {
        return Status::InvalidArgument(
            "numeric literal out of range at offset " +
            std::to_string(t.offset));
      }
      t.text = std::move(text);
      tokens.push_back(std::move(t));
      continue;
    }
    if (c == '\'') {
      ++i;
      std::string text;
      bool closed = false;
      while (i < n) {
        if (sql[i] == '\'') {
          if (i + 1 < n && sql[i + 1] == '\'') {  // escaped quote
            text += '\'';
            i += 2;
            continue;
          }
          closed = true;
          ++i;
          break;
        }
        text += sql[i++];
      }
      if (!closed) {
        return Status::InvalidArgument("unterminated string literal at offset " +
                                       std::to_string(t.offset));
      }
      t.kind = TokenKind::kString;
      t.text = std::move(text);
      tokens.push_back(std::move(t));
      continue;
    }
    // Two-character symbols first.
    if (i + 1 < n) {
      std::string two = sql.substr(i, 2);
      if (two == "<=" || two == ">=" || two == "<>" || two == "!=") {
        t.kind = TokenKind::kSymbol;
        t.text = two == "!=" ? "<>" : two;
        tokens.push_back(std::move(t));
        i += 2;
        continue;
      }
    }
    if (std::string("=<>+-*/(),.;?").find(c) != std::string::npos) {
      t.kind = TokenKind::kSymbol;
      t.text = std::string(1, c);
      tokens.push_back(std::move(t));
      ++i;
      continue;
    }
    return Status::InvalidArgument("unexpected character '" +
                                   std::string(1, c) + "' at offset " +
                                   std::to_string(i));
  }
  Token end;
  end.kind = TokenKind::kEnd;
  end.offset = n;
  tokens.push_back(end);
  return tokens;
}

bool TokenIs(const Token& t, const char* keyword) {
  if (t.kind != TokenKind::kIdent) return false;
  const std::string& s = t.text;
  size_t i = 0;
  for (; keyword[i] != '\0'; ++i) {
    if (i >= s.size()) return false;
    if (std::toupper(static_cast<unsigned char>(s[i])) !=
        std::toupper(static_cast<unsigned char>(keyword[i]))) {
      return false;
    }
  }
  return i == s.size();
}

}  // namespace costdb
