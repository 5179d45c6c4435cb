//===--- AstPrinter.cpp - Pretty printer for the core AST -----------------===//
//
// Part of the Mix reproduction of "Mixing Type Checking and Symbolic
// Execution" (PLDI 2010).
//
//===----------------------------------------------------------------------===//

#include "lang/AstPrinter.h"

#include <climits>

using namespace mix;

namespace {

/// The core syntax has no negative literals (nor a unary minus), so a
/// negative value prints as a subtraction from zero. LLONG_MIN needs one
/// more step: the lexer cannot read its magnitude, 2^63.
std::string printIntLit(long long V) {
  if (V >= 0)
    return std::to_string(V);
  if (V == LLONG_MIN)
    return "((0 - " + std::to_string(LLONG_MAX) + ") - 1)";
  return "(0 - " + std::to_string(-V) + ")";
}

/// Recursive printer. Wraps each compound subexpression in parentheses so
/// precedence never needs to be reconstructed.
class PrinterVisitor {
public:
  std::string print(const Expr *E) {
    switch (E->kind()) {
    case ExprKind::Var:
      return cast<VarExpr>(E)->name();
    case ExprKind::IntLit:
      return printIntLit(cast<IntLitExpr>(E)->value());
    case ExprKind::BoolLit:
      return cast<BoolLitExpr>(E)->value() ? "true" : "false";
    case ExprKind::Binary: {
      const auto *B = cast<BinaryExpr>(E);
      return "(" + print(B->lhs()) + " " + binaryOpSpelling(B->op()) + " " +
             print(B->rhs()) + ")";
    }
    case ExprKind::Not:
      return "(not " + print(cast<NotExpr>(E)->sub()) + ")";
    case ExprKind::If: {
      const auto *I = cast<IfExpr>(E);
      return "(if " + print(I->cond()) + " then " + print(I->thenExpr()) +
             " else " + print(I->elseExpr()) + ")";
    }
    case ExprKind::Let: {
      const auto *L = cast<LetExpr>(E);
      std::string Ascription =
          L->declaredType() ? " : " + L->declaredType()->str() : "";
      return "(let " + L->name() + Ascription + " = " + print(L->init()) +
             " in " + print(L->body()) + ")";
    }
    case ExprKind::Ref:
      return "(ref " + print(cast<RefExpr>(E)->sub()) + ")";
    case ExprKind::Deref:
      return "(!" + print(cast<DerefExpr>(E)->sub()) + ")";
    case ExprKind::Assign: {
      const auto *A = cast<AssignExpr>(E);
      return "(" + print(A->target()) + " := " + print(A->value()) + ")";
    }
    case ExprKind::Seq: {
      const auto *S = cast<SeqExpr>(E);
      return "(" + print(S->first()) + "; " + print(S->second()) + ")";
    }
    case ExprKind::Block: {
      const auto *B = cast<BlockExpr>(E);
      if (B->blockKind() == BlockKind::Typed)
        return "{t " + print(B->body()) + " t}";
      return "{s " + print(B->body()) + " s}";
    }
    case ExprKind::Fun: {
      const auto *F = cast<FunExpr>(E);
      return "(fun (" + F->param() + ": " + F->paramType()->str() +
             ") : " + F->resultType()->str() + " -> " + print(F->body()) +
             ")";
    }
    case ExprKind::App: {
      const auto *A = cast<AppExpr>(E);
      return "(" + print(A->fn()) + " " + print(A->arg()) + ")";
    }
    }
    return "<invalid-expr>";
  }
};

} // namespace

std::string mix::printExpr(const Expr *E) {
  PrinterVisitor V;
  return V.print(E);
}
