//===--- CLower.cpp - Lowering mini-C bodies to the bytecode --------------===//
//
// Part of the Mix reproduction of "Mixing Type Checking and Symbolic
// Execution" (PLDI 2010).
//
//===----------------------------------------------------------------------===//
//
// Lowers one CFuncDecl body into a CIrFunction. Everything that depends
// on the path (identifier scoping, pointer case analysis, lazy
// initialization) stays dynamic in the matching opcode; everything the
// AST alone decides (malloc intrinsics, direct callees, statement
// structure, lvalue positions that hold no lvalue) is decided here, once.
//
// Continuation barriers: each node records its [start, end) span, and
// two constructs add synthetic *prefix spans* —
//  - calls: after a fork inside argument J, arguments J+1..N each run
//    for all outcomes before the callee dispatch; the spans
//    [call start, arg K end) are those barriers;
//  - blocks: each statement runs for every live path before the next;
//    the spans [block start, stmt K end) ditto.
//
//===----------------------------------------------------------------------===//

#include "ir/CIr.h"

#include "cfront/CSema.h"

#include <cassert>
#include <map>

using namespace mix;
using namespace mix::ir;
using namespace mix::c;

namespace {

class CLowerer {
public:
  CLowerer(const CFuncDecl *Func, const CProgram &Program)
      : Program(Program) {
    F = std::make_unique<CIrFunction>();
    F->Func = Func;
  }

  std::unique_ptr<CIrFunction> run() {
    newRegion(); // region 0: the body
    lowerStmt(0, F->Func->body());
    F->NumRegs = NextReg;
    return std::move(F);
  }

private:
  const CProgram &Program;
  std::unique_ptr<CIrFunction> F;
  uint32_t NextReg = 0;
  std::map<std::string, uint32_t> Interned;

  uint32_t fresh() { return NextReg++; }

  uint32_t newRegion() {
    F->Regions.emplace_back();
    return (uint32_t)(F->Regions.size() - 1);
  }

  uint32_t intern(const std::string &S) {
    auto It = Interned.find(S);
    if (It != Interned.end())
      return It->second;
    uint32_t Idx = (uint32_t)F->Names.size();
    F->Names.push_back(S);
    Interned.emplace(S, Idx);
    return Idx;
  }

  CInstr &push(uint32_t R, CInstr In) {
    F->Regions[R].Code.push_back(std::move(In));
    return F->Regions[R].Code.back();
  }

  uint32_t size(uint32_t R) const {
    return (uint32_t)F->Regions[R].Code.size();
  }

  void span(uint32_t R, uint32_t Start) {
    F->Regions[R].Spans.push_back({Start, size(R)});
  }

  // --- expressions (rvalue position) -----------------------------------

  /// Lowers \p E into region \p R; returns the value register. Records
  /// the node's span.
  uint32_t lowerExpr(uint32_t R, const CExpr *E) {
    uint32_t Start = size(R);
    uint32_t Reg = lowerExprNode(R, E);
    span(R, Start);
    return Reg;
  }

  uint32_t lowerExprNode(uint32_t R, const CExpr *E) {
    switch (E->kind()) {
    case CExprKind::IntLit: {
      CInstr In;
      In.Op = COpcode::CConstInt;
      In.Dst = fresh();
      In.Imm = cast<CIntLit>(E)->value();
      return push(R, In).Dst;
    }
    case CExprKind::SizeOf: {
      // sizeof is the constant 8: the exact size is immaterial here.
      CInstr In;
      In.Op = COpcode::CConstInt;
      In.Dst = fresh();
      In.Imm = 8;
      return push(R, In).Dst;
    }
    case CExprKind::StrLit: {
      CInstr In;
      In.Op = COpcode::CStr;
      In.Dst = fresh();
      In.Loc = E->loc();
      return push(R, In).Dst;
    }
    case CExprKind::NullLit: {
      CInstr In;
      In.Op = COpcode::CNull;
      In.Dst = fresh();
      return push(R, In).Dst;
    }
    case CExprKind::Ident: {
      CInstr In;
      In.Op = COpcode::CLoadIdent;
      In.Dst = fresh();
      In.Aux = intern(cast<CIdent>(E)->name());
      In.Loc = E->loc();
      return push(R, In).Dst;
    }
    case CExprKind::Unary: {
      const auto *U = cast<CUnary>(E);
      switch (U->op()) {
      case CUnaryOp::Deref: {
        uint32_t V = lowerExpr(R, U->sub());
        CInstr In;
        In.Op = COpcode::CDerefRead;
        In.Dst = fresh();
        In.A = V;
        In.Loc = E->loc();
        return push(R, In).Dst;
      }
      case CUnaryOp::AddrOf: {
        uint32_t Cells = lowerLValue(R, U->sub());
        CInstr In;
        In.Op = COpcode::CAddrOf;
        In.Dst = fresh();
        In.A = Cells;
        In.Loc = E->loc();
        return push(R, In).Dst;
      }
      case CUnaryOp::Not: {
        uint32_t V = lowerExpr(R, U->sub());
        CInstr In;
        In.Op = COpcode::CNot;
        In.Dst = fresh();
        In.A = V;
        return push(R, In).Dst;
      }
      case CUnaryOp::Neg: {
        uint32_t V = lowerExpr(R, U->sub());
        CInstr In;
        In.Op = COpcode::CNeg;
        In.Dst = fresh();
        In.A = V;
        return push(R, In).Dst;
      }
      }
      assert(false && "unhandled unary operator");
      return CNoReg;
    }
    case CExprKind::Binary: {
      const auto *B = cast<CBinary>(E);
      uint32_t L = lowerExpr(R, B->lhs());
      uint32_t Rr = lowerExpr(R, B->rhs());
      CInstr In;
      In.Op = COpcode::CBinOp;
      In.BOp = B->op();
      In.Dst = fresh();
      In.A = L;
      In.B = Rr;
      In.Loc = E->loc();
      return push(R, In).Dst;
    }
    case CExprKind::Assign: {
      const auto *A = cast<CAssign>(E);
      uint32_t Cells = lowerLValue(R, A->target());
      uint32_t V = lowerExpr(R, A->value());
      CInstr In;
      In.Op = COpcode::CStoreCells;
      In.A = Cells;
      In.B = V;
      In.Loc = E->loc();
      push(R, In);
      // The assignment's value is the stored value's register.
      return V;
    }
    case CExprKind::Call:
      return lowerCall(R, cast<CCall>(E));
    case CExprKind::Member: {
      uint32_t Cells = lowerLValueNode(R, E);
      CInstr In;
      In.Op = COpcode::CReadMerged;
      In.Dst = fresh();
      In.A = Cells;
      In.Loc = E->loc();
      return push(R, In).Dst;
    }
    case CExprKind::Cast: {
      const auto *C = cast<CCast>(E);
      // (T*)malloc(...): allocate an object of the cast's pointee type,
      // named after the *cast* expression's location. Arguments are
      // never evaluated.
      if (const auto *Call = dyn_cast<CCall>(C->sub()))
        if (const auto *Id = dyn_cast<CIdent>(Call->callee()))
          if (Id->name() == "malloc" && !Program.findFunc("malloc") &&
              C->target()->isPointer()) {
            CInstr In;
            In.Op = COpcode::CMalloc;
            In.Dst = fresh();
            In.Ty = C->target()->pointee();
            In.Aux = intern("malloc@" + E->loc().str());
            In.Loc = E->loc();
            return push(R, In).Dst;
          }
      // Other casts are transparent.
      return lowerExpr(R, C->sub());
    }
    }
    assert(false && "unhandled expression kind");
    return CNoReg;
  }

  uint32_t lowerCall(uint32_t R, const CCall *Call) {
    // Bare malloc (no cast): an int-typed object named after the call.
    if (const auto *Id = dyn_cast<CIdent>(Call->callee()))
      if (Id->name() == "malloc" && !Program.findFunc("malloc")) {
        CInstr In;
        In.Op = COpcode::CMalloc;
        In.Dst = fresh();
        In.Ty = nullptr; // int at run time
        In.Aux = intern("malloc@" + Call->loc().str());
        In.Loc = Call->loc();
        return push(R, In).Dst;
      }

    uint32_t Start = size(R);
    std::vector<uint32_t> Args;
    for (const CExpr *Arg : Call->args()) {
      Args.push_back(lowerExpr(R, Arg));
      // Prefix span: after a fork in an earlier argument, this argument
      // runs for every outcome before the next one.
      span(R, Start);
    }

    CInstr In;
    In.Op = COpcode::CCall;
    In.Dst = fresh();
    In.CallNode = Call;
    In.Callee = CSema::directCallee(Call, Program);
    if (!In.Callee) {
      // Indirect call: the callee pointer is evaluated per ArgState,
      // after all arguments (no prefix span — the dispatch runs with
      // the callee evaluation, per outcome).
      In.A = lowerExpr(R, Call->callee());
    }
    In.ArgsBegin = (uint32_t)F->ArgRegs.size();
    In.ArgsCount = (uint32_t)Args.size();
    for (uint32_t A : Args)
      F->ArgRegs.push_back(A);
    In.Loc = Call->loc();
    return push(R, In).Dst;
  }

  // --- lvalue positions -------------------------------------------------

  uint32_t lowerLValue(uint32_t R, const CExpr *E) {
    uint32_t Start = size(R);
    uint32_t Reg = lowerLValueNode(R, E);
    span(R, Start);
    return Reg;
  }

  /// Identifiers, *ptr, and member accesses resolve to guarded cells;
  /// anything else lowers to not_lvalue, which warns at \p E and ends
  /// the path.
  uint32_t lowerLValueNode(uint32_t R, const CExpr *E) {
    switch (E->kind()) {
    case CExprKind::Ident: {
      CInstr In;
      In.Op = COpcode::CLValIdent;
      In.Dst = fresh();
      In.Aux = intern(cast<CIdent>(E)->name());
      In.Loc = E->loc();
      return push(R, In).Dst;
    }
    case CExprKind::Unary: {
      const auto *U = cast<CUnary>(E);
      if (U->op() != CUnaryOp::Deref)
        break;
      uint32_t V = lowerExpr(R, U->sub());
      CInstr In;
      In.Op = COpcode::CLValDeref;
      In.Dst = fresh();
      In.A = V;
      In.Loc = E->loc();
      return push(R, In).Dst;
    }
    case CExprKind::Member: {
      const auto *M = cast<CMember>(E);
      if (!M->isArrow()) {
        uint32_t Base = lowerLValue(R, M->base());
        CInstr In;
        In.Op = COpcode::CLValField;
        In.Dst = fresh();
        In.A = Base;
        In.Aux = intern(M->field());
        In.Loc = E->loc();
        return push(R, In).Dst;
      }
      uint32_t Base = lowerExpr(R, M->base());
      CInstr In;
      In.Op = COpcode::CLValArrow;
      In.Dst = fresh();
      In.A = Base;
      In.Aux = intern(M->field());
      In.Loc = E->loc();
      return push(R, In).Dst;
    }
    default:
      break;
    }
    CInstr In;
    In.Op = COpcode::CNotLValue;
    In.Dst = fresh();
    In.Loc = E->loc();
    return push(R, In).Dst;
  }

  // --- statements -------------------------------------------------------

  /// Lowers \p S into region \p R: a CStmtEntry guard (skip target
  /// backpatched to the statement's end), the statement's instructions,
  /// and the node span.
  void lowerStmt(uint32_t R, const CStmt *S) {
    uint32_t Start = size(R);
    CInstr Entry;
    Entry.Op = COpcode::CStmtEntry;
    Entry.Loc = S->loc();
    push(R, Entry);
    lowerStmtNode(R, S);
    F->Regions[R].Code[Start].Imm = size(R);
    span(R, Start);
  }

  /// Lowers a statement into a fresh region (branch arms, loop bodies).
  uint32_t lowerStmtRegion(const CStmt *S) {
    uint32_t R = newRegion();
    lowerStmt(R, S);
    return R;
  }

  void lowerStmtNode(uint32_t R, const CStmt *S) {
    switch (S->kind()) {
    case CStmtKind::Expr:
      lowerExpr(R, cast<CExprStmt>(S)->expr());
      return;
    case CStmtKind::Decl: {
      const auto *D = cast<CDeclStmt>(S);
      CInstr In;
      In.Op = COpcode::CDeclLocal;
      In.Dst = fresh();
      In.Aux = intern(D->name());
      In.Aux2 = intern(F->Func->name() + "::" + D->name());
      In.Ty = D->type();
      In.Loc = S->loc();
      uint32_t Cells = push(R, In).Dst;
      if (!D->init())
        return;
      uint32_t V = lowerExpr(R, D->init());
      CInstr Init;
      Init.Op = COpcode::CInitLocal;
      Init.A = Cells;
      Init.B = V;
      push(R, Init);
      return;
    }
    case CStmtKind::If: {
      const auto *I = cast<CIfStmt>(S);
      uint32_t Cond = lowerExpr(R, I->cond());
      uint32_t Then = lowerStmtRegion(I->thenStmt());
      uint32_t Else = I->elseStmt() ? lowerStmtRegion(I->elseStmt())
                                    : CNoRegion;
      CInstr In;
      In.Op = COpcode::CBranch;
      In.A = Cond;
      In.R1 = Then;
      In.R2 = Else;
      In.Loc = S->loc();
      In.Loc2 = I->cond()->loc();
      push(R, In);
      return;
    }
    case CStmtKind::While: {
      const auto *W = cast<CWhileStmt>(S);
      uint32_t CondR = newRegion();
      F->Regions[CondR].Result = lowerExpr(CondR, W->cond());
      uint32_t Body = lowerStmtRegion(W->body());
      CInstr In;
      In.Op = COpcode::CLoop;
      In.R1 = CondR;
      In.R2 = Body;
      In.Loc = S->loc();
      In.Loc2 = W->cond()->loc();
      push(R, In);
      return;
    }
    case CStmtKind::Return: {
      const auto *Ret = cast<CReturnStmt>(S);
      CInstr In;
      In.Op = COpcode::CReturn;
      In.Loc = S->loc();
      if (Ret->value())
        In.A = lowerExpr(R, Ret->value());
      push(R, In);
      return;
    }
    case CStmtKind::Block: {
      uint32_t Start = size(R) - 1; // include the block's own entry
      for (const CStmt *Sub : cast<CBlockStmt>(S)->stmts()) {
        lowerStmt(R, Sub);
        // Prefix span: after a fork inside an earlier statement, this
        // statement runs for the whole Active set before the next.
        F->Regions[R].Spans.push_back({Start, size(R)});
      }
      return;
    }
    }
    assert(false && "unhandled statement kind");
  }
};

} // namespace

std::unique_ptr<CIrFunction> ir::lowerC(const CFuncDecl *Func,
                                        const CProgram &Program) {
  if (!Func || !Func->isDefined())
    return nullptr;
  return CLowerer(Func, Program).run();
}
