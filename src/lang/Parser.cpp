//===--- Parser.cpp - Parser for the core MIX language --------------------===//
//
// Part of the Mix reproduction of "Mixing Type Checking and Symbolic
// Execution" (PLDI 2010).
//
//===----------------------------------------------------------------------===//

#include "lang/Parser.h"

using namespace mix;

Parser::Parser(std::string_view Source, AstContext &Ctx,
               DiagnosticEngine &Diags)
    : Ctx(Ctx), Diags(Diags), Lex(Source, Diags) {
  Tok = Lex.next();
}

void Parser::consume() { Tok = Lex.next(); }

bool Parser::expect(TokenKind Kind) {
  if (Tok.is(Kind)) {
    consume();
    return true;
  }
  Diags.error(Tok.Loc,
              std::string("expected ") + tokenKindName(Kind) + ", found " +
                  tokenKindName(Tok.Kind),
              DiagID::ParseError);
  return false;
}

bool Parser::error(const std::string &Message) {
  Diags.error(Tok.Loc, Message, DiagID::ParseError);
  return false;
}

const Expr *Parser::parseProgram() {
  const Expr *E = parseExpr();
  if (!E)
    return nullptr;
  if (!Tok.is(TokenKind::Eof)) {
    error(std::string("unexpected ") + tokenKindName(Tok.Kind) +
          " after expression");
    return nullptr;
  }
  // A lexical error fails the parse even when the tokens still form an
  // expression (an unterminated comment just ends the stream).
  if (Lex.hadError())
    return nullptr;
  return E;
}

const Expr *Parser::parseExpr() { return parseSeq(); }

const Expr *Parser::parseSeq() {
  const Expr *First = parseAssign();
  if (!First)
    return nullptr;
  if (!Tok.is(TokenKind::Semi))
    return First;
  SourceLoc Loc = Tok.Loc;
  consume();
  const Expr *Second = parseSeq();
  if (!Second)
    return nullptr;
  return Ctx.make<SeqExpr>(Loc, First, Second);
}

const Expr *Parser::parseAssign() {
  const Expr *Target = parseOr();
  if (!Target)
    return nullptr;
  if (!Tok.is(TokenKind::ColonEqual))
    return Target;
  SourceLoc Loc = Tok.Loc;
  consume();
  const Expr *Value = parseAssign();
  if (!Value)
    return nullptr;
  return Ctx.make<AssignExpr>(Loc, Target, Value);
}

const Expr *Parser::parseOr() {
  const Expr *Lhs = parseAnd();
  if (!Lhs)
    return nullptr;
  while (Tok.is(TokenKind::KwOr)) {
    SourceLoc Loc = Tok.Loc;
    consume();
    const Expr *Rhs = parseAnd();
    if (!Rhs)
      return nullptr;
    Lhs = Ctx.make<BinaryExpr>(Loc, BinaryOp::Or, Lhs, Rhs);
  }
  return Lhs;
}

const Expr *Parser::parseAnd() {
  const Expr *Lhs = parseCmp();
  if (!Lhs)
    return nullptr;
  while (Tok.is(TokenKind::KwAnd)) {
    SourceLoc Loc = Tok.Loc;
    consume();
    const Expr *Rhs = parseCmp();
    if (!Rhs)
      return nullptr;
    Lhs = Ctx.make<BinaryExpr>(Loc, BinaryOp::And, Lhs, Rhs);
  }
  return Lhs;
}

const Expr *Parser::parseCmp() {
  const Expr *Lhs = parseAdd();
  if (!Lhs)
    return nullptr;
  BinaryOp Op;
  if (Tok.is(TokenKind::Equal))
    Op = BinaryOp::Eq;
  else if (Tok.is(TokenKind::Less))
    Op = BinaryOp::Lt;
  else if (Tok.is(TokenKind::LessEqual))
    Op = BinaryOp::Le;
  else
    return Lhs;
  SourceLoc Loc = Tok.Loc;
  consume();
  const Expr *Rhs = parseAdd();
  if (!Rhs)
    return nullptr;
  return Ctx.make<BinaryExpr>(Loc, Op, Lhs, Rhs);
}

const Expr *Parser::parseAdd() {
  const Expr *Lhs = parseApp();
  if (!Lhs)
    return nullptr;
  while (Tok.is(TokenKind::Plus) || Tok.is(TokenKind::Minus)) {
    BinaryOp Op = Tok.is(TokenKind::Plus) ? BinaryOp::Add : BinaryOp::Sub;
    SourceLoc Loc = Tok.Loc;
    consume();
    const Expr *Rhs = parseApp();
    if (!Rhs)
      return nullptr;
    Lhs = Ctx.make<BinaryExpr>(Loc, Op, Lhs, Rhs);
  }
  return Lhs;
}

bool Parser::startsAtom() const {
  switch (Tok.Kind) {
  case TokenKind::Ident:
  case TokenKind::IntLit:
  case TokenKind::KwTrue:
  case TokenKind::KwFalse:
  case TokenKind::LParen:
  case TokenKind::Bang:
  case TokenKind::LBraceTyped:
  case TokenKind::LBraceSymbolic:
    return true;
  default:
    return false;
  }
}

const Expr *Parser::parseApp() {
  const Expr *Fn = parsePrefix();
  if (!Fn)
    return nullptr;
  while (startsAtom()) {
    SourceLoc Loc = Tok.Loc;
    const Expr *Arg = parsePrefix();
    if (!Arg)
      return nullptr;
    Fn = Ctx.make<AppExpr>(Loc, Fn, Arg);
  }
  return Fn;
}

const Expr *Parser::parsePrefix() {
  SourceLoc Loc = Tok.Loc;
  if (Tok.is(TokenKind::Bang)) {
    consume();
    const Expr *Sub = parsePrefix();
    if (!Sub)
      return nullptr;
    return Ctx.make<DerefExpr>(Loc, Sub);
  }
  if (Tok.is(TokenKind::KwRef)) {
    consume();
    const Expr *Sub = parsePrefix();
    if (!Sub)
      return nullptr;
    return Ctx.make<RefExpr>(Loc, Sub);
  }
  if (Tok.is(TokenKind::KwNot)) {
    consume();
    const Expr *Sub = parsePrefix();
    if (!Sub)
      return nullptr;
    return Ctx.make<NotExpr>(Loc, Sub);
  }
  return parsePrimary();
}

const Expr *Parser::parsePrimary() {
  SourceLoc Loc = Tok.Loc;
  switch (Tok.Kind) {
  case TokenKind::Ident: {
    std::string Name = Tok.Text;
    consume();
    return Ctx.make<VarExpr>(Loc, std::move(Name));
  }
  case TokenKind::IntLit: {
    long long Value = Tok.IntValue;
    consume();
    return Ctx.make<IntLitExpr>(Loc, Value);
  }
  case TokenKind::KwTrue:
    consume();
    return Ctx.make<BoolLitExpr>(Loc, true);
  case TokenKind::KwFalse:
    consume();
    return Ctx.make<BoolLitExpr>(Loc, false);
  case TokenKind::LParen: {
    consume();
    const Expr *Inner = parseExpr();
    if (!Inner || !expect(TokenKind::RParen))
      return nullptr;
    return Inner;
  }
  case TokenKind::LBraceTyped: {
    consume();
    const Expr *Body = parseExpr();
    if (!Body || !expect(TokenKind::RBraceTyped))
      return nullptr;
    return Ctx.make<BlockExpr>(Loc, BlockKind::Typed, Body);
  }
  case TokenKind::LBraceSymbolic: {
    consume();
    const Expr *Body = parseExpr();
    if (!Body || !expect(TokenKind::RBraceSymbolic))
      return nullptr;
    return Ctx.make<BlockExpr>(Loc, BlockKind::Symbolic, Body);
  }
  case TokenKind::KwIf:
    return parseIf();
  case TokenKind::KwLet:
    return parseLet();
  case TokenKind::KwFun:
    return parseFun();
  default:
    error(std::string("expected expression, found ") +
          tokenKindName(Tok.Kind));
    return nullptr;
  }
}

const Expr *Parser::parseIf() {
  SourceLoc Loc = Tok.Loc;
  consume(); // 'if'
  const Expr *Cond = parseExpr();
  if (!Cond || !expect(TokenKind::KwThen))
    return nullptr;
  const Expr *Then = parseExpr();
  if (!Then || !expect(TokenKind::KwElse))
    return nullptr;
  const Expr *Else = parseExpr();
  if (!Else)
    return nullptr;
  return Ctx.make<IfExpr>(Loc, Cond, Then, Else);
}

const Expr *Parser::parseLet() {
  SourceLoc Loc = Tok.Loc;
  consume(); // 'let'
  if (!Tok.is(TokenKind::Ident)) {
    error("expected identifier after 'let'");
    return nullptr;
  }
  std::string Name = Tok.Text;
  consume();

  const Type *Declared = nullptr;
  if (Tok.is(TokenKind::Colon)) {
    consume();
    Declared = parseType();
    if (!Declared)
      return nullptr;
  }

  if (!expect(TokenKind::Equal))
    return nullptr;
  const Expr *Init = parseExpr();
  if (!Init || !expect(TokenKind::KwIn))
    return nullptr;
  const Expr *Body = parseExpr();
  if (!Body)
    return nullptr;
  return Ctx.make<LetExpr>(Loc, std::move(Name), Declared, Init, Body);
}

const Expr *Parser::parseFun() {
  SourceLoc Loc = Tok.Loc;
  consume(); // 'fun'
  if (!expect(TokenKind::LParen))
    return nullptr;
  if (!Tok.is(TokenKind::Ident)) {
    error("expected parameter name in 'fun'");
    return nullptr;
  }
  std::string Param = Tok.Text;
  consume();
  if (!expect(TokenKind::Colon))
    return nullptr;
  const Type *ParamType = parseType();
  if (!ParamType || !expect(TokenKind::RParen) || !expect(TokenKind::Colon))
    return nullptr;
  // The result annotation stops before '->' so the body arrow is not
  // swallowed by the type grammar; arrow result types need parentheses,
  // e.g. `fun (f: int) : (int -> int) -> ...`.
  const Type *ResultType = parseRefType();
  if (!ResultType || !expect(TokenKind::Arrow))
    return nullptr;
  const Expr *Body = parseExpr();
  if (!Body)
    return nullptr;
  return Ctx.make<FunExpr>(Loc, std::move(Param), ParamType, ResultType,
                           Body);
}

const Type *Parser::parseType() {
  const Type *Lhs = parseRefType();
  if (!Lhs)
    return nullptr;
  if (!Tok.is(TokenKind::Arrow))
    return Lhs;
  consume();
  const Type *Rhs = parseType();
  if (!Rhs)
    return nullptr;
  return Ctx.types().funType(Lhs, Rhs);
}

const Type *Parser::parseRefType() {
  const Type *T = parseAtomType();
  if (!T)
    return nullptr;
  while (Tok.is(TokenKind::KwRef)) {
    consume();
    T = Ctx.types().refType(T);
  }
  return T;
}

const Type *Parser::parseAtomType() {
  switch (Tok.Kind) {
  case TokenKind::KwInt:
    consume();
    return Ctx.types().intType();
  case TokenKind::KwBool:
    consume();
    return Ctx.types().boolType();
  case TokenKind::LParen: {
    consume();
    const Type *Inner = parseType();
    if (!Inner || !expect(TokenKind::RParen))
      return nullptr;
    return Inner;
  }
  default:
    error(std::string("expected type, found ") + tokenKindName(Tok.Kind));
    return nullptr;
  }
}

const Expr *mix::parseExpression(std::string_view Source, AstContext &Ctx,
                                 DiagnosticEngine &Diags) {
  Parser P(Source, Ctx, Diags);
  return P.parseProgram();
}
