//===--- Lexer.h - Lexer for the core MIX language --------------*- C++ -*-===//
//
// Part of the Mix reproduction of "Mixing Type Checking and Symbolic
// Execution" (PLDI 2010).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Hand-written lexer for the core language. Supports nested ML-style
/// comments `(* ... *)` and the paper's block delimiters `{t ... t}` /
/// `{s ... s}`.
///
//===----------------------------------------------------------------------===//

#ifndef MIX_LANG_LEXER_H
#define MIX_LANG_LEXER_H

#include "lang/Token.h"
#include "support/Diagnostics.h"

#include <string>
#include <string_view>

namespace mix {

/// Produces a token stream from a source buffer.
class Lexer {
public:
  Lexer(std::string_view Source, DiagnosticEngine &Diags);

  /// Lexes and returns the next token, advancing the cursor.
  Token next();

  /// The current source location of the cursor.
  SourceLoc loc() const { return {Line, Column}; }

  /// True once any lexical error has been reported. Some (an
  /// unterminated comment) produce no Error token, so a parser must check
  /// this as well as the token stream.
  bool hadError() const { return HadError; }

private:
  char peek(size_t LookAhead = 0) const;
  char advance();
  bool atEnd() const { return Pos >= Source.size(); }
  void skipWhitespaceAndComments();
  Token lexIdentOrKeyword();
  Token lexNumber();
  Token makeToken(TokenKind Kind, SourceLoc Loc) const;
  void error(SourceLoc Loc, const std::string &Message);

  std::string_view Source;
  DiagnosticEngine &Diags;
  size_t Pos = 0;
  uint32_t Line = 1;
  uint32_t Column = 1;
  bool HadError = false;
};

} // namespace mix

#endif // MIX_LANG_LEXER_H
