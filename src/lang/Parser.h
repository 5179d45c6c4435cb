//===--- Parser.h - Parser for the core MIX language ------------*- C++ -*-===//
//
// Part of the Mix reproduction of "Mixing Type Checking and Symbolic
// Execution" (PLDI 2010).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Recursive-descent parser for the core language. The grammar, lowest
/// precedence first:
///
///   expr     := seq
///   seq      := assign (';' seq)?
///   assign   := or (':=' assign)?
///   or       := and ('or' and)*
///   and      := cmp ('and' cmp)*
///   cmp      := add (('=' | '<' | '<=') add)?
///   add      := app (('+' | '-') app)*
///   app      := prefix prefix*                  (application, left assoc)
///   prefix   := ('!' | 'ref' | 'not') prefix | primary
///   primary  := ident | literal | '(' expr ')' | '{t' expr 't}'
///            | '{s' expr 's}' | if | let | fun
///   fun      := 'fun' '(' ident ':' type ')' ':' reftype '->' expr
///               (arrow-typed results must be parenthesized so the body
///               arrow is unambiguous)
///
/// `if`/`let`/`fun` extend as far right as possible, as in ML.
///
//===----------------------------------------------------------------------===//

#ifndef MIX_LANG_PARSER_H
#define MIX_LANG_PARSER_H

#include "lang/Ast.h"
#include "lang/Lexer.h"

namespace mix {

/// Parses core-language source text into an AST owned by an AstContext.
class Parser {
public:
  Parser(std::string_view Source, AstContext &Ctx, DiagnosticEngine &Diags);

  /// Parses a complete program (a single expression followed by EOF).
  /// Returns null and reports diagnostics on failure, including when the
  /// lexer reported an error.
  const Expr *parseProgram();

private:
  // Token stream plumbing.
  const Token &tok() const { return Tok; }
  void consume();
  bool expect(TokenKind Kind);
  bool error(const std::string &Message);

  // Expression grammar, one method per precedence level.
  const Expr *parseExpr();
  const Expr *parseSeq();
  const Expr *parseAssign();
  const Expr *parseOr();
  const Expr *parseAnd();
  const Expr *parseCmp();
  const Expr *parseAdd();
  const Expr *parseApp();
  const Expr *parsePrefix();
  const Expr *parsePrimary();
  const Expr *parseIf();
  const Expr *parseLet();
  const Expr *parseFun();

  // Type annotations.
  const Type *parseType();
  const Type *parseRefType();
  const Type *parseAtomType();

  /// True when the current token can begin an application argument.
  bool startsAtom() const;

  AstContext &Ctx;
  DiagnosticEngine &Diags;
  Lexer Lex;
  Token Tok;
};

/// Convenience entry point: parses \p Source with a fresh parser.
const Expr *parseExpression(std::string_view Source, AstContext &Ctx,
                            DiagnosticEngine &Diags);

} // namespace mix

#endif // MIX_LANG_PARSER_H
