#include "sql/lexer.h"

#include <cctype>
#include <charconv>

#include "common/str_util.h"

namespace cqp::sql {

namespace {

bool IsIdentStart(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) || c == '_';
}

bool IsIdentChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

bool IsKeywordWord(const std::string& upper) {
  return upper == "SELECT" || upper == "DISTINCT" || upper == "FROM" ||
         upper == "WHERE" || upper == "AND" || upper == "AS" ||
         upper == "ORDER" || upper == "BY" || upper == "ASC" ||
         upper == "DESC" || upper == "LIMIT" || upper == "UNION" ||
         upper == "ALL" || upper == "GROUP" || upper == "HAVING" ||
         upper == "COUNT";
}

}  // namespace

bool Token::IsKeyword(const char* kw) const {
  return kind == TokenKind::kKeyword && text == kw;
}

bool Token::IsSymbol(const char* sym) const {
  return kind == TokenKind::kSymbol && text == sym;
}

StatusOr<std::vector<Token>> Lex(const std::string& input) {
  std::vector<Token> tokens;
  size_t i = 0;
  const size_t n = input.size();
  while (i < n) {
    char c = input[i];
    if (std::isspace(static_cast<unsigned char>(c))) {
      ++i;
      continue;
    }
    Token tok;
    tok.offset = i;
    if (IsIdentStart(c)) {
      size_t j = i;
      while (j < n && IsIdentChar(input[j])) ++j;
      std::string word = input.substr(i, j - i);
      std::string upper = ToUpper(word);
      if (IsKeywordWord(upper)) {
        tok.kind = TokenKind::kKeyword;
        tok.text = upper;
      } else {
        tok.kind = TokenKind::kIdentifier;
        tok.text = word;
      }
      i = j;
    } else if (std::isdigit(static_cast<unsigned char>(c)) ||
               (c == '-' && i + 1 < n &&
                std::isdigit(static_cast<unsigned char>(input[i + 1])))) {
      size_t j = i + 1;
      bool is_double = false;
      while (j < n && (std::isdigit(static_cast<unsigned char>(input[j])) ||
                       input[j] == '.')) {
        if (input[j] == '.') {
          if (is_double) break;  // second dot terminates the number
          is_double = true;
        }
        ++j;
      }
      std::string num = input.substr(i, j - i);
      const char* end = num.data() + num.size();
      std::from_chars_result parsed;
      if (is_double) {
        tok.kind = TokenKind::kDouble;
        parsed = std::from_chars(num.data(), end, tok.double_value);
      } else {
        tok.kind = TokenKind::kInt;
        parsed = std::from_chars(num.data(), end, tok.int_value);
      }
      if (parsed.ec != std::errc() || parsed.ptr != end) {
        return InvalidArgument(StrFormat(
            "numeric literal %s at offset %zu is out of range",
            num.c_str(), i));
      }
      tok.text = num;
      i = j;
    } else if (c == '\'') {
      std::string text;
      size_t j = i + 1;
      bool closed = false;
      while (j < n) {
        if (input[j] == '\'') {
          if (j + 1 < n && input[j + 1] == '\'') {
            text += '\'';
            j += 2;
            continue;
          }
          closed = true;
          ++j;
          break;
        }
        text += input[j];
        ++j;
      }
      if (!closed) {
        return InvalidArgument(
            StrFormat("unterminated string literal at offset %zu", i));
      }
      tok.kind = TokenKind::kString;
      tok.text = std::move(text);
      i = j;
    } else if (c == '<') {
      if (i + 1 < n && (input[i + 1] == '=' || input[i + 1] == '>')) {
        tok.kind = TokenKind::kSymbol;
        tok.text = input.substr(i, 2);
        i += 2;
      } else {
        tok.kind = TokenKind::kSymbol;
        tok.text = "<";
        ++i;
      }
    } else if (c == '>') {
      if (i + 1 < n && input[i + 1] == '=') {
        tok.kind = TokenKind::kSymbol;
        tok.text = ">=";
        i += 2;
      } else {
        tok.kind = TokenKind::kSymbol;
        tok.text = ">";
        ++i;
      }
    } else if (c == '!' && i + 1 < n && input[i + 1] == '=') {
      // Accept != as a spelling of <>.
      tok.kind = TokenKind::kSymbol;
      tok.text = "<>";
      i += 2;
    } else if (c == ',' || c == '.' || c == '*' || c == '(' || c == ')' ||
               c == ';' || c == '=') {
      tok.kind = TokenKind::kSymbol;
      tok.text = std::string(1, c);
      ++i;
    } else {
      return InvalidArgument(
          StrFormat("unexpected character '%c' at offset %zu", c, i));
    }
    tokens.push_back(std::move(tok));
  }
  Token end;
  end.kind = TokenKind::kEnd;
  end.offset = n;
  tokens.push_back(end);
  return tokens;
}

}  // namespace cqp::sql
