//===--- CIrTest.cpp - Mini-C bytecode lowering/verifier/printer tests ----===//
//
// Part of the Mix reproduction of "Mixing Type Checking and Symbolic
// Execution" (PLDI 2010).
//
//===----------------------------------------------------------------------===//
//
// Goldens for ir::printC over every mini-C opcode and structural-verifier
// negative tests (mutating well-formed bytecode one invariant at a
// time). The differential tests of the *interpreter* live in
// CIrDiffTest.cpp and CInterpTest.cpp; this file pins the bytecode
// itself.
//
//===----------------------------------------------------------------------===//

#include "cfront/CParser.h"
#include "ir/CIr.h"
#include "support/Diagnostics.h"

#include "gtest/gtest.h"

#include <memory>
#include <string>

using namespace mix;
using namespace mix::ir;

namespace {

class CIrTest : public ::testing::Test {
protected:
  c::CAstContext Ctx;
  DiagnosticEngine Diags;

  /// Parses \p Source and lowers \p Fn, asserting both succeed and the
  /// result verifies.
  std::unique_ptr<CIrFunction> lower(const std::string &Source,
                                     const std::string &Fn) {
    const c::CProgram *P = c::parseC(Source, Ctx, Diags);
    EXPECT_NE(P, nullptr) << Diags.str();
    if (!P)
      return nullptr;
    auto F = lowerC(P->findFunc(Fn), *P);
    EXPECT_NE(F, nullptr);
    if (F) {
      EXPECT_EQ(verifyC(*F), "");
    }
    return F;
  }

  /// Returns a mutable pointer to the first instruction with opcode
  /// \p Op, scanning regions in order.
  static CInstr *findOp(CIrFunction &F, COpcode Op) {
    for (auto &R : F.Regions)
      for (auto &In : R.Code)
        if (In.Op == Op)
          return &In;
    return nullptr;
  }
};

// ---------------------------------------------------------------------------
// printC goldens. One per opcode family; together they exercise every
// mini-C opcode (stmt_entry, const_int, str, null, load_ident,
// lval_ident, lval_deref, lval_arrow, lval_field, not_lvalue, read_merged,
// deref_read, addr_of, not, neg, binop, store_cells, malloc,
// decl_local, init_local, call, branch, loop, ret).
// ---------------------------------------------------------------------------

TEST_F(CIrTest, GoldenScalarsAndBranch) {
  auto F = lower(R"(int f(int a) {
  int x = 2;
  if (a < x) { return a; } else { x = a + 1; }
  return x;
}
)",
                 "f");
  ASSERT_NE(F, nullptr);
  EXPECT_EQ(printC(*F),
            R"(cfunc f regs=11 regions=3
region 0:
  stmt_entry skip=13 @1:14
  stmt_entry skip=5 @2:3
  %0 = decl_local 'x' obj='f::x' : int @2:3
  %1 = const_int 2
  init_local %0 := %1
  stmt_entry skip=10 @3:3
  %2 = load_ident 'a' @3:7
  %3 = load_ident 'x' @3:11
  %4 = binop '<' %2 %3 @3:9
  branch %4 ? r1 : r2 @3:3 @3:9
  stmt_entry skip=13 @4:3
  %10 = load_ident 'x' @4:10
  ret %10 @4:3
region 1:
  stmt_entry skip=4 @3:14
  stmt_entry skip=4 @3:16
  %5 = load_ident 'a' @3:23
  ret %5 @3:16
region 2:
  stmt_entry skip=7 @3:33
  stmt_entry skip=7 @3:35
  %6 = lval_ident 'x' @3:35
  %7 = load_ident 'a' @3:39
  %8 = const_int 1
  %9 = binop '+' %7 %8 @3:41
  store_cells %6 := %9 @3:37
)");
}

TEST_F(CIrTest, GoldenPointers) {
  auto F = lower(R"(int g(int *p) {
  int *q;
  q = (int*) malloc(sizeof(int));
  *q = *p;
  char *s;
  s = "lit";
  p = NULL;
  return !*q;
}
)",
                 "g");
  ASSERT_NE(F, nullptr);
  EXPECT_EQ(printC(*F),
            R"(cfunc g regs=15 regions=1
region 0:
  stmt_entry skip=28 @1:15
  stmt_entry skip=3 @2:3
  %0 = decl_local 'q' obj='g::q' : int * @2:3
  stmt_entry skip=7 @3:3
  %1 = lval_ident 'q' @3:3
  %2 = malloc 'malloc@3:7' : int @3:7
  store_cells %1 := %2 @3:5
  stmt_entry skip=13 @4:3
  %3 = load_ident 'q' @4:4
  %4 = lval_deref %3 @4:3
  %5 = load_ident 'p' @4:9
  %6 = deref_read %5 @4:8
  store_cells %4 := %6 @4:6
  stmt_entry skip=15 @5:3
  %7 = decl_local 's' obj='g::s' : char * @5:3
  stmt_entry skip=19 @6:3
  %8 = lval_ident 's' @6:3
  %9 = str @6:7
  store_cells %8 := %9 @6:5
  stmt_entry skip=23 @7:3
  %10 = lval_ident 'p' @7:3
  %11 = null
  store_cells %10 := %11 @7:5
  stmt_entry skip=28 @8:3
  %12 = load_ident 'q' @8:12
  %13 = deref_read %12 @8:11
  %14 = not %13
  ret %14 @8:3
)");
}

TEST_F(CIrTest, GoldenStructs) {
  auto F = lower(R"(struct pt { int x; struct pt *n; };
int h(struct pt *p) {
  struct pt v;
  v.x = p->x;
  struct pt *w;
  w = &v;
  return w->n->x + v.x;
}
)",
                 "h");
  ASSERT_NE(F, nullptr);
  EXPECT_EQ(printC(*F),
            R"(cfunc h regs=19 regions=1
region 0:
  stmt_entry skip=28 @2:21
  stmt_entry skip=3 @3:3
  %0 = decl_local 'v' obj='h::v' : struct pt @3:3
  stmt_entry skip=10 @4:3
  %1 = lval_ident 'v' @4:3
  %2 = lval_field %1 'x' @4:4
  %3 = load_ident 'p' @4:9
  %4 = lval_arrow %3 'x' @4:10
  %5 = read_merged %4 @4:10
  store_cells %2 := %5 @4:7
  stmt_entry skip=12 @5:3
  %6 = decl_local 'w' obj='h::w' : struct pt * @5:3
  stmt_entry skip=17 @6:3
  %7 = lval_ident 'w' @6:3
  %8 = lval_ident 'v' @6:8
  %9 = addr_of %8 @6:7
  store_cells %7 := %9 @6:5
  stmt_entry skip=28 @7:3
  %10 = load_ident 'w' @7:10
  %11 = lval_arrow %10 'n' @7:11
  %12 = read_merged %11 @7:11
  %13 = lval_arrow %12 'x' @7:14
  %14 = read_merged %13 @7:14
  %15 = lval_ident 'v' @7:20
  %16 = lval_field %15 'x' @7:21
  %17 = read_merged %16 @7:21
  %18 = binop '+' %14 %17 @7:18
  ret %18 @7:3
)");
}

TEST_F(CIrTest, GoldenCallsAndLoop) {
  auto F = lower(R"(int add(int a, int b) { return a + b; }
int m(int k) {
  int (*fp)(int, int);
  fp = add;
  while (k < 3) { k = add(k, fp(1, 2)); }
  return -k;
}
)",
                 "m");
  ASSERT_NE(F, nullptr);
  // The indirect callee (%11) is evaluated *after* its arguments, and
  // the direct call's first argument (%7) before the nested call —
  // exactly CSymExecutor's evaluation order.
  EXPECT_EQ(printC(*F),
            R"(cfunc m regs=15 regions=3
region 0:
  stmt_entry skip=13 @2:14
  stmt_entry skip=3 @3:3
  %0 = decl_local 'fp' obj='m::fp' : int (int, int) * @3:3
  stmt_entry skip=7 @4:3
  %1 = lval_ident 'fp' @4:3
  %2 = load_ident 'add' @4:8
  store_cells %1 := %2 @4:6
  stmt_entry skip=9 @5:3
  loop cond=r1 body=r2 @5:3 @5:12
  stmt_entry skip=13 @6:3
  %13 = load_ident 'k' @6:11
  %14 = neg %13
  ret %14 @6:3
region 1:
  %3 = load_ident 'k' @5:10
  %4 = const_int 3
  %5 = binop '<' %3 %4 @5:12
  result %5
region 2:
  stmt_entry skip=10 @5:17
  stmt_entry skip=10 @5:19
  %6 = lval_ident 'k' @5:19
  %7 = load_ident 'k' @5:27
  %8 = const_int 1
  %9 = const_int 2
  %11 = load_ident 'fp' @5:30
  %10 = call %11 (%8, %9) @5:32
  %12 = call 'add' (%7, %10) @5:26
  store_cells %6 := %12 @5:21
)");
}

// ---------------------------------------------------------------------------
// Lowering is deterministic: the same body lowers to the same bytes
// every time.
// ---------------------------------------------------------------------------

TEST_F(CIrTest, LoweringIsDeterministic) {
  const std::string Src = R"(int f(int a) {
  int x = 2;
  if (a < x) { return a; } else { x = a + 1; }
  return x;
}
)";
  auto F1 = lower(Src, "f");
  auto F2 = lower(Src, "f");
  ASSERT_NE(F1, nullptr);
  ASSERT_NE(F2, nullptr);
  EXPECT_EQ(printC(*F1), printC(*F2));
}

// ---------------------------------------------------------------------------
// verifyC negative tests: take well-formed bytecode and break one
// invariant at a time.
// ---------------------------------------------------------------------------

class CVerifyTest : public CIrTest {
protected:
  /// A small body whose bytecode carries every operand class the
  /// verifier distinguishes: values, cell lists, a call, a stmt_entry.
  std::unique_ptr<CIrFunction> wellFormed() {
    return lower(R"(int id(int a) { return a; }
int f(int a) {
  int x = 0;
  x = id(a);
  return x;
}
)",
                 "f");
  }
};

TEST_F(CVerifyTest, ValueOperandWhereCellsExpected) {
  auto F = wellFormed();
  ASSERT_NE(F, nullptr);
  CInstr *Store = findOp(*F, COpcode::CStoreCells);
  ASSERT_NE(Store, nullptr);
  // store_cells' A names the lvalue's cell list; point it at the value
  // operand instead.
  Store->A = Store->B;
  EXPECT_NE(verifyC(*F).find("is not a cell list"), std::string::npos)
      << verifyC(*F);
}

TEST_F(CVerifyTest, CellsOperandWhereValueExpected) {
  auto F = wellFormed();
  ASSERT_NE(F, nullptr);
  CInstr *Store = findOp(*F, COpcode::CStoreCells);
  CInstr *Ret = findOp(*F, COpcode::CReturn);
  ASSERT_NE(Store, nullptr);
  ASSERT_NE(Ret, nullptr);
  // ret's operand must be a value; hand it the store's cell list.
  Ret->A = Store->A;
  EXPECT_NE(verifyC(*F).find("is not a value"), std::string::npos)
      << verifyC(*F);
}

TEST_F(CVerifyTest, CallArityMustMatchAstNode) {
  auto F = wellFormed();
  ASSERT_NE(F, nullptr);
  CInstr *Call = findOp(*F, COpcode::CCall);
  ASSERT_NE(Call, nullptr);
  Call->ArgsCount = 0;
  EXPECT_NE(verifyC(*F).find("call arity 0 does not match the AST "
                             "node's 1"),
            std::string::npos)
      << verifyC(*F);
}

TEST_F(CVerifyTest, UseOfUndefinedRegister) {
  auto F = wellFormed();
  ASSERT_NE(F, nullptr);
  CInstr *Ret = findOp(*F, COpcode::CReturn);
  ASSERT_NE(Ret, nullptr);
  // Grow the register file and read the never-written register.
  Ret->A = F->NumRegs++;
  EXPECT_NE(verifyC(*F).find("use of undefined register"),
            std::string::npos)
      << verifyC(*F);
}

TEST_F(CVerifyTest, OperandRegisterOutOfRange) {
  auto F = wellFormed();
  ASSERT_NE(F, nullptr);
  CInstr *Ret = findOp(*F, COpcode::CReturn);
  ASSERT_NE(Ret, nullptr);
  Ret->A = F->NumRegs;
  EXPECT_NE(verifyC(*F).find("out of range"), std::string::npos)
      << verifyC(*F);
}

TEST_F(CVerifyTest, RegistersAreWriteOnce) {
  auto F = wellFormed();
  ASSERT_NE(F, nullptr);
  CInstr *Load = findOp(*F, COpcode::CLoadIdent);
  CInstr *Call = findOp(*F, COpcode::CCall);
  ASSERT_NE(Load, nullptr);
  ASSERT_NE(Call, nullptr);
  Call->Dst = Load->Dst;
  EXPECT_NE(verifyC(*F).find("written twice"), std::string::npos)
      << verifyC(*F);
}

TEST_F(CVerifyTest, StmtEntrySkipTargetMustMoveForward) {
  auto F = wellFormed();
  ASSERT_NE(F, nullptr);
  CInstr *Entry = findOp(*F, COpcode::CStmtEntry);
  ASSERT_NE(Entry, nullptr);
  Entry->Imm = 0;
  EXPECT_NE(verifyC(*F).find("stmt_entry skip target 0 out of range"),
            std::string::npos)
      << verifyC(*F);
}

// ---------------------------------------------------------------------------
// Every defined body lowers; only a declaration without one does not.
// ---------------------------------------------------------------------------

TEST_F(CIrTest, DeclinesFunctionWithoutBody) {
  const c::CProgram *P = c::parseC(R"(int ext(int a);
int main(int argc) { return ext(argc); }
)",
                                   Ctx, Diags);
  ASSERT_NE(P, nullptr) << Diags.str();
  EXPECT_EQ(lowerC(P->findFunc("ext"), *P), nullptr);
}

TEST_F(CIrTest, GoldenNonLValueTargets) {
  // A non-lvalue in lvalue position (assignment target, address-of
  // operand) lowers to not_lvalue at the offending expression: at run
  // time it warns there and the path ends, so the value is never
  // evaluated.
  auto F = lower(R"(int bad(int a) {
  a + 1 = 2;
  int *p = &(a - 1);
  return a;
}
)",
                 "bad");
  ASSERT_NE(F, nullptr);
  EXPECT_EQ(printC(*F),
            R"(cfunc bad regs=6 regions=1
region 0:
  stmt_entry skip=13 @1:16
  stmt_entry skip=5 @2:3
  %0 = not_lvalue @2:5
  %1 = const_int 2
  store_cells %0 := %1 @2:9
  stmt_entry skip=10 @3:3
  %2 = decl_local 'p' obj='bad::p' : int * @3:3
  %3 = not_lvalue @3:16
  %4 = addr_of %3 @3:12
  init_local %2 := %4
  stmt_entry skip=13 @4:3
  %5 = load_ident 'a' @4:10
  ret %5 @4:3
)");
}

} // namespace
