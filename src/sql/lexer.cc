#include "sql/lexer.h"

#include <cctype>
#include <charconv>

namespace paradise::sql {

StatusOr<std::vector<Token>> Tokenize(const std::string& input) {
  std::vector<Token> out;
  size_t i = 0;
  auto error = [&](const std::string& message) {
    return Status::InvalidArgument(message + " at offset " +
                                   std::to_string(i));
  };
  while (i < input.size()) {
    char c = input[i];
    if (std::isspace(static_cast<unsigned char>(c))) {
      ++i;
      continue;
    }
    Token t;
    t.position = i;
    if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
      size_t start = i;
      while (i < input.size() &&
             (std::isalnum(static_cast<unsigned char>(input[i])) ||
              input[i] == '_')) {
        ++i;
      }
      t.type = TokenType::kIdentifier;
      t.text = input.substr(start, i - start);
      for (char& ch : t.text) {
        ch = static_cast<char>(std::tolower(static_cast<unsigned char>(ch)));
      }
      out.push_back(std::move(t));
      continue;
    }
    if (std::isdigit(static_cast<unsigned char>(c)) ||
        (c == '-' && i + 1 < input.size() &&
         (std::isdigit(static_cast<unsigned char>(input[i + 1])) ||
          input[i + 1] == '.'))) {
      size_t start = i;
      if (c == '-') ++i;
      bool is_float = false;
      while (i < input.size() &&
             (std::isdigit(static_cast<unsigned char>(input[i])) ||
              input[i] == '.')) {
        if (input[i] == '.') is_float = true;
        ++i;
      }
      const char* first = input.data() + start;
      const char* last = input.data() + i;
      std::from_chars_result r;
      if (is_float) {
        t.type = TokenType::kFloat;
        r = std::from_chars(first, last, t.float_value);
      } else {
        t.type = TokenType::kInteger;
        r = std::from_chars(first, last, t.int_value);
      }
      // Out of range, or no number at all ("-.", "1.2.3").
      if (r.ec != std::errc() || r.ptr != last) {
        return Status::InvalidArgument("bad number '" +
                                       std::string(first, last) +
                                       "' at offset " + std::to_string(start));
      }
      out.push_back(std::move(t));
      continue;
    }
    if (c == '\'') {
      size_t start = ++i;
      while (i < input.size() && input[i] != '\'') ++i;
      if (i >= input.size()) return error("unterminated string literal");
      t.type = TokenType::kString;
      t.text = input.substr(start, i - start);
      ++i;  // closing quote
      out.push_back(std::move(t));
      continue;
    }
    switch (c) {
      case ',': t.type = TokenType::kComma; ++i; break;
      case '(': t.type = TokenType::kLParen; ++i; break;
      case ')': t.type = TokenType::kRParen; ++i; break;
      case '*': t.type = TokenType::kStar; ++i; break;
      case '.': t.type = TokenType::kDot; ++i; break;
      case '=': t.type = TokenType::kEq; ++i; break;
      case '<':
        if (i + 1 < input.size() && input[i + 1] == '=') {
          t.type = TokenType::kLe;
          i += 2;
        } else if (i + 1 < input.size() && input[i + 1] == '>') {
          t.type = TokenType::kNe;
          i += 2;
        } else {
          t.type = TokenType::kLt;
          ++i;
        }
        break;
      case '>':
        if (i + 1 < input.size() && input[i + 1] == '=') {
          t.type = TokenType::kGe;
          i += 2;
        } else {
          t.type = TokenType::kGt;
          ++i;
        }
        break;
      case '!':
        if (i + 1 < input.size() && input[i + 1] == '=') {
          t.type = TokenType::kNe;
          i += 2;
          break;
        }
        return error("unexpected '!'");
      default:
        return error(std::string("unexpected character '") + c + "'");
    }
    out.push_back(std::move(t));
  }
  Token end;
  end.type = TokenType::kEnd;
  end.position = input.size();
  out.push_back(end);
  return out;
}

}  // namespace paradise::sql
