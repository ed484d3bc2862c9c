// Token stream for the miniature Fortran-90D front end (see lang/parser.hpp
// for the accepted grammar).
#pragma once

#include <string>
#include <vector>

#include "rt/types.hpp"

namespace chaos::lang {

enum class Tok : u8 {
  Ident,    // identifiers and keywords (case-insensitive, stored upper)
  Number,   // integer or floating literal
  LParen,
  RParen,
  Comma,
  Assign,   // =
  Plus,
  Minus,
  Star,
  Slash,
  Power,    // **
  End,      // end of line
};

struct Token {
  Tok kind = Tok::End;
  std::string text;   // upper-cased for Ident
  f64 number = 0.0;
  int line = 0;
  int column = 0;
};

/// Syntax or semantic error with source position.
class LangError : public ChaosError {
 public:
  LangError(const std::string& msg, int line, int column = 0)
      : ChaosError(where(line, column) + msg), line_(line) {}
  [[nodiscard]] int line() const { return line_; }

 private:
  /// "line L: " or "line L:C: ", built by appending: GCC 12 reports a false
  /// -Wrestrict for a string literal + std::string temporary.
  static std::string where(int line, int column) {
    std::string s = "line ";
    s += std::to_string(line);
    if (column > 0) {
      s += ':';
      s += std::to_string(column);
    }
    s += ": ";
    return s;
  }

  int line_;
};

/// Tokenizes one logical source line. @p line_no is 1-based for diagnostics.
[[nodiscard]] std::vector<Token> tokenize_line(const std::string& line,
                                               int line_no);

}  // namespace chaos::lang
