//===--- CInterpTest.cpp - Differential testing of the C executor ---------===//
//
// Part of the Mix reproduction of "Mixing Type Checking and Symbolic
// Execution" (PLDI 2010).
//
// A small concrete interpreter for mini-C (test-only) and a random
// program generator. The interpreter shares no code with the symbolic
// executor's IR engine, which makes it the independent oracle: on
// closed, deterministic programs symbolic execution degenerates to an
// interpreter and must produce exactly one path whose return value
// matches concrete execution, and on programs with symbolic inputs the
// paths must partition the inputs and agree with it on each.
//
//===----------------------------------------------------------------------===//

#include "cfront/CParser.h"
#include "cfront/CPrinter.h"
#include "cfront/CSema.h"
#include "csym/CSymExecutor.h"
#include "observe/Metrics.h"
#include "solver/SmtSolver.h"

#include <gtest/gtest.h>

#include <optional>
#include <random>

using namespace mix::c;
using mix::DiagnosticEngine;

namespace {

// === a concrete mini-C interpreter ==========================================

/// A concrete value: an integer, or a pointer to a cell (object + field),
/// or null. Functions are out of scope for the generator.
struct CV {
  enum class Kind { Int, Ptr, Null } K = Kind::Int;
  long long I = 0;
  unsigned Obj = 0;
  std::string Field;

  static CV intv(long long V) {
    CV C;
    C.K = Kind::Int;
    C.I = V;
    return C;
  }
  static CV ptr(unsigned Obj, std::string Field) {
    CV C;
    C.K = Kind::Ptr;
    C.Obj = Obj;
    C.Field = std::move(Field);
    return C;
  }
  static CV null() {
    CV C;
    C.K = Kind::Null;
    return C;
  }
  bool truthy() const {
    switch (K) {
    case Kind::Int:
      return I != 0;
    case Kind::Ptr:
      return true;
    case Kind::Null:
      return false;
    }
    return false;
  }
};

/// Interprets a whole program from an entry function. Traps (null deref,
/// resource exhaustion) return nullopt.
class CInterp {
public:
  explicit CInterp(const CProgram &P) : P(P) {}

  std::optional<long long> run(const std::string &Entry) {
    const CFuncDecl *F = P.findFunc(Entry);
    if (!F || !F->isDefined())
      return std::nullopt;
    std::optional<CV> R = call(F, {});
    if (!R || R->K != CV::Kind::Int)
      return std::nullopt;
    return R->I;
  }

private:
  using Cell = std::pair<unsigned, std::string>;

  unsigned newObject() { return ++LastObj; }

  std::optional<CV> call(const CFuncDecl *F, const std::vector<CV> &Args) {
    if (++Calls > 100000 || Depth > 64)
      return std::nullopt;
    ++Depth;
    std::map<std::string, unsigned> Locals;
    for (size_t I = 0; I != F->params().size(); ++I) {
      unsigned Obj = newObject();
      Locals[F->params()[I].Name] = Obj;
      if (I < Args.size())
        Mem[{Obj, ""}] = Args[I];
    }
    CV Ret = CV::intv(0);
    bool Returned = false;
    bool Ok = exec(F->body(), Locals, Ret, Returned);
    --Depth;
    if (!Ok)
      return std::nullopt;
    return Ret;
  }

  bool exec(const CStmt *S, std::map<std::string, unsigned> &Locals, CV &Ret,
            bool &Returned) {
    if (Returned)
      return true;
    if (++Steps > 1000000)
      return false;
    switch (S->kind()) {
    case CStmtKind::Expr: {
      auto V = eval(cast<CExprStmt>(S)->expr(), Locals);
      return V.has_value();
    }
    case CStmtKind::Decl: {
      const auto *D = cast<CDeclStmt>(S);
      unsigned Obj = newObject();
      Locals[D->name()] = Obj;
      if (D->init()) {
        auto V = eval(D->init(), Locals);
        if (!V)
          return false;
        Mem[{Obj, ""}] = *V;
      }
      return true;
    }
    case CStmtKind::If: {
      const auto *I = cast<CIfStmt>(S);
      auto C = eval(I->cond(), Locals);
      if (!C)
        return false;
      if (C->truthy())
        return exec(I->thenStmt(), Locals, Ret, Returned);
      if (I->elseStmt())
        return exec(I->elseStmt(), Locals, Ret, Returned);
      return true;
    }
    case CStmtKind::While: {
      const auto *W = cast<CWhileStmt>(S);
      for (unsigned Iter = 0; Iter != 100000; ++Iter) {
        auto C = eval(W->cond(), Locals);
        if (!C)
          return false;
        if (!C->truthy())
          return true;
        if (!exec(W->body(), Locals, Ret, Returned) || Returned)
          return !Returned ? false : true;
      }
      return false; // ran too long
    }
    case CStmtKind::Return: {
      const auto *R = cast<CReturnStmt>(S);
      if (R->value()) {
        auto V = eval(R->value(), Locals);
        if (!V)
          return false;
        Ret = *V;
      }
      Returned = true;
      return true;
    }
    case CStmtKind::Block:
      for (const CStmt *Sub : cast<CBlockStmt>(S)->stmts()) {
        if (!exec(Sub, Locals, Ret, Returned))
          return false;
        if (Returned)
          return true;
      }
      return true;
    }
    return false;
  }

  std::optional<Cell> lvalue(const CExpr *E,
                             std::map<std::string, unsigned> &Locals) {
    switch (E->kind()) {
    case CExprKind::Ident: {
      const auto *Id = cast<CIdent>(E);
      auto It = Locals.find(Id->name());
      if (It != Locals.end())
        return Cell{It->second, ""};
      if (P.findGlobal(Id->name())) {
        auto GIt = GlobalObjs.find(Id->name());
        if (GIt == GlobalObjs.end())
          GIt = GlobalObjs.emplace(Id->name(), newObject()).first;
        return Cell{GIt->second, ""};
      }
      return std::nullopt;
    }
    case CExprKind::Unary: {
      const auto *U = cast<CUnary>(E);
      if (U->op() != CUnaryOp::Deref)
        return std::nullopt;
      auto V = eval(U->sub(), Locals);
      if (!V || V->K != CV::Kind::Ptr)
        return std::nullopt; // includes the null-deref trap
      return Cell{V->Obj, V->Field};
    }
    case CExprKind::Member: {
      const auto *M = cast<CMember>(E);
      if (M->isArrow()) {
        auto V = eval(M->base(), Locals);
        if (!V || V->K != CV::Kind::Ptr)
          return std::nullopt;
        std::string F =
            V->Field.empty() ? M->field() : V->Field + "." + M->field();
        return Cell{V->Obj, F};
      }
      auto Base = lvalue(M->base(), Locals);
      if (!Base)
        return std::nullopt;
      Base->second = Base->second.empty()
                         ? M->field()
                         : Base->second + "." + M->field();
      return Base;
    }
    default:
      return std::nullopt;
    }
  }

  std::optional<CV> eval(const CExpr *E,
                         std::map<std::string, unsigned> &Locals) {
    switch (E->kind()) {
    case CExprKind::IntLit:
      return CV::intv(cast<CIntLit>(E)->value());
    case CExprKind::SizeOf:
      return CV::intv(8);
    case CExprKind::NullLit:
      return CV::null();
    case CExprKind::StrLit:
      return CV::ptr(newObject(), "");
    case CExprKind::Ident: {
      auto L = lvalue(E, Locals);
      if (!L)
        return std::nullopt;
      auto It = Mem.find(*L);
      if (It == Mem.end())
        return std::nullopt; // read of uninitialized storage
      return It->second;
    }
    case CExprKind::Unary: {
      const auto *U = cast<CUnary>(E);
      switch (U->op()) {
      case CUnaryOp::Deref: {
        auto L = lvalue(E, Locals);
        if (!L)
          return std::nullopt;
        auto It = Mem.find(*L);
        if (It == Mem.end())
          return std::nullopt;
        return It->second;
      }
      case CUnaryOp::AddrOf: {
        auto L = lvalue(U->sub(), Locals);
        if (!L)
          return std::nullopt;
        return CV::ptr(L->first, L->second);
      }
      case CUnaryOp::Not: {
        auto V = eval(U->sub(), Locals);
        if (!V)
          return std::nullopt;
        return CV::intv(V->truthy() ? 0 : 1);
      }
      case CUnaryOp::Neg: {
        auto V = eval(U->sub(), Locals);
        if (!V || V->K != CV::Kind::Int)
          return std::nullopt;
        return CV::intv(-V->I);
      }
      }
      return std::nullopt;
    }
    case CExprKind::Binary: {
      const auto *B = cast<CBinary>(E);
      auto L = eval(B->lhs(), Locals);
      if (!L)
        return std::nullopt;
      // Note: like the symbolic executor, no short-circuiting (the
      // generator never relies on it).
      auto R = eval(B->rhs(), Locals);
      if (!R)
        return std::nullopt;
      auto AsInt = [](const CV &V) -> std::optional<long long> {
        if (V.K == CV::Kind::Int)
          return V.I;
        if (V.K == CV::Kind::Null)
          return 0;
        return std::nullopt;
      };
      switch (B->op()) {
      case CBinaryOp::Add:
      case CBinaryOp::Sub: {
        auto LI = AsInt(*L), RI = AsInt(*R);
        if (!LI || !RI)
          return std::nullopt;
        return CV::intv(B->op() == CBinaryOp::Add ? *LI + *RI : *LI - *RI);
      }
      case CBinaryOp::Eq:
      case CBinaryOp::Ne: {
        bool Equal;
        if (L->K == CV::Kind::Ptr && R->K == CV::Kind::Ptr)
          Equal = L->Obj == R->Obj && L->Field == R->Field;
        else if (L->K == CV::Kind::Ptr || R->K == CV::Kind::Ptr)
          Equal = false; // ptr vs null/zero
        else
          Equal = L->truthy() == R->truthy() && AsInt(*L) == AsInt(*R);
        return CV::intv((B->op() == CBinaryOp::Eq) == Equal ? 1 : 0);
      }
      case CBinaryOp::Lt:
      case CBinaryOp::Gt:
      case CBinaryOp::Le:
      case CBinaryOp::Ge: {
        auto LI = AsInt(*L), RI = AsInt(*R);
        if (!LI || !RI)
          return std::nullopt;
        bool V = false;
        switch (B->op()) {
        case CBinaryOp::Lt:
          V = *LI < *RI;
          break;
        case CBinaryOp::Gt:
          V = *LI > *RI;
          break;
        case CBinaryOp::Le:
          V = *LI <= *RI;
          break;
        case CBinaryOp::Ge:
          V = *LI >= *RI;
          break;
        default:
          break;
        }
        return CV::intv(V ? 1 : 0);
      }
      case CBinaryOp::LAnd:
        return CV::intv(L->truthy() && R->truthy() ? 1 : 0);
      case CBinaryOp::LOr:
        return CV::intv(L->truthy() || R->truthy() ? 1 : 0);
      }
      return std::nullopt;
    }
    case CExprKind::Assign: {
      const auto *A = cast<CAssign>(E);
      auto L = lvalue(A->target(), Locals);
      if (!L)
        return std::nullopt;
      auto V = eval(A->value(), Locals);
      if (!V)
        return std::nullopt;
      Mem[*L] = *V;
      return V;
    }
    case CExprKind::Call: {
      const auto *Call = cast<CCall>(E);
      if (const auto *Id = dyn_cast<CIdent>(Call->callee()))
        if (Id->name() == "malloc" && !P.findFunc("malloc"))
          return CV::ptr(newObject(), "");
      CSema Sema(P, const_cast<CAstContext &>(Ctx), Diags);
      const CFuncDecl *F = Sema.directCallee(Call);
      if (!F || !F->isDefined())
        return std::nullopt;
      std::vector<CV> Args;
      for (const CExpr *Arg : Call->args()) {
        auto V = eval(Arg, Locals);
        if (!V)
          return std::nullopt;
        Args.push_back(*V);
      }
      return this->call(F, Args);
    }
    case CExprKind::Member: {
      auto L = lvalue(E, Locals);
      if (!L)
        return std::nullopt;
      auto It = Mem.find(*L);
      if (It == Mem.end())
        return std::nullopt;
      return It->second;
    }
    case CExprKind::Cast:
      return eval(cast<CCast>(E)->sub(), Locals);
    }
    return std::nullopt;
  }

  const CProgram &P;
  CAstContext Ctx; // scratch for CSema
  DiagnosticEngine Diags;
  std::map<Cell, CV> Mem;
  std::map<std::string, unsigned> GlobalObjs;
  unsigned LastObj = 0;
  unsigned Steps = 0;
  unsigned Calls = 0;
  unsigned Depth = 0;
};

// === the random program generator ============================================

/// Emits closed, deterministic, always-initialized mini-C programs: int
/// locals, pointers to locals, malloc'd structs, bounded loops, direct
/// calls into small helpers.
class CProgramGenerator {
public:
  explicit CProgramGenerator(std::mt19937 &Rng) : Rng(Rng) {}

  std::string generate() {
    std::string Out = "struct box { int a; int b; };\n";
    // A couple of helpers with fixed shapes.
    Out += "int helper0(int x) { return x + 1; }\n";
    Out += "int helper1(int x, int y) {\n"
           "  if (x > y) { return x - y; }\n"
           "  return y - x;\n"
           "}\n";
    Out += "int main(void) {\n";
    unsigned NumVars = 2 + Rng() % 3;
    for (unsigned I = 0; I != NumVars; ++I) {
      Vars.push_back("v" + std::to_string(I));
      Out += "  int v" + std::to_string(I) + " = " +
             std::to_string((long long)(Rng() % 19) - 9) + ";\n";
    }
    unsigned NumStmts = 3 + Rng() % 6;
    for (unsigned I = 0; I != NumStmts; ++I)
      Out += stmt();
    Out += "  return " + expr(2) + ";\n";
    Out += "}\n";
    return Out;
  }

private:
  std::string var() { return Vars[Rng() % Vars.size()]; }

  std::string expr(unsigned Depth) {
    if (Depth == 0)
      return Rng() % 2 ? var() : std::to_string((long long)(Rng() % 9) - 4);
    switch (Rng() % 6) {
    case 0:
      return "(" + expr(Depth - 1) + " + " + expr(Depth - 1) + ")";
    case 1:
      return "(" + expr(Depth - 1) + " - " + expr(Depth - 1) + ")";
    case 2:
      return "helper0(" + expr(Depth - 1) + ")";
    case 3:
      return "helper1(" + expr(Depth - 1) + ", " + expr(Depth - 1) + ")";
    case 4:
      return "(" + expr(Depth - 1) + " " + cmp() + " " + expr(Depth - 1) +
             ")";
    default:
      return var();
    }
  }

  std::string cmp() {
    const char *Ops[] = {"<", ">", "<=", ">=", "==", "!="};
    return Ops[Rng() % 6];
  }

  std::string stmt() {
    switch (Rng() % 6) {
    case 0:
      return "  " + var() + " = " + expr(2) + ";\n";
    case 1:
      return "  if (" + expr(1) + " " + cmp() + " " + expr(1) + ") { " +
             var() + " = " + expr(1) + "; } else { " + var() + " = " +
             expr(1) + "; }\n";
    case 2: {
      // A bounded countdown loop.
      std::string I = "i" + std::to_string(Counter++);
      return "  int " + I + " = " + std::to_string(Rng() % 5) +
             ";\n  while (" + I + " > 0) { " + var() + " = " + var() +
             " + " + I + "; " + I + " = " + I + " - 1; }\n";
    }
    case 3: {
      // Pointer to a local, written through.
      std::string P = "p" + std::to_string(Counter++);
      std::string Target = var();
      return "  int *" + P + " = &" + Target + ";\n  *" + P + " = *" + P +
             " + " + std::to_string(Rng() % 5) + ";\n";
    }
    case 4: {
      // A malloc'd struct with both fields used.
      std::string B = "b" + std::to_string(Counter++);
      return "  struct box *" + B +
             " = (struct box*) malloc(sizeof(struct box));\n  " + B +
             "->a = " + expr(1) + ";\n  " + B + "->b = " + expr(1) +
             ";\n  " + var() + " = " + B + "->a + " + B + "->b;\n";
    }
    default:
      return "  " + var() + " = helper0(" + var() + ");\n";
    }
  }

  std::mt19937 &Rng;
  std::vector<std::string> Vars;
  unsigned Counter = 0;
};

} // namespace

/// The differential property: on closed deterministic programs, symbolic
/// execution is exact.
class CDifferentialTest : public ::testing::TestWithParam<unsigned> {};

TEST_P(CDifferentialTest, SymbolicExecutionMatchesInterpretation) {
  std::mt19937 Rng(GetParam());
  unsigned Compared = 0;
  for (int Round = 0; Round != 40; ++Round) {
    CProgramGenerator Gen(Rng);
    std::string Source = Gen.generate();

    CAstContext Ctx;
    DiagnosticEngine Diags;
    const CProgram *P = parseC(Source, Ctx, Diags);
    ASSERT_NE(P, nullptr) << Source << "\n" << Diags.str();

    CInterp Interp(*P);
    std::optional<long long> Expected = Interp.run("main");
    ASSERT_TRUE(Expected.has_value()) << "interpreter trapped on:\n"
                                      << Source;

    mix::smt::TermArena Terms;
    mix::smt::SmtSolver Solver(Terms);
    CSymOptions Opts;
    Opts.LoopBound = 16;
    mix::obs::MetricsRegistry Reg;
    Opts.Metrics = &Reg;
    CSymExecutor Exec(*P, Ctx, Diags, Terms, Solver, Opts);
    CSymResult R = Exec.runFunction(P->findFunc("main"));
    // The bodies really ran on the IR engine.
    ASSERT_GT(Reg.counterValue("ir.lower.misses"), 0u) << Source;

    ASSERT_EQ(R.WarningCount, 0u) << Source;
    ASSERT_EQ(R.Paths.size(), 1u) << "deterministic program forked:\n"
                                  << Source;
    ASSERT_TRUE(R.Paths[0].Returned) << Source;
    ASSERT_TRUE(R.Paths[0].Ret.isScalar()) << Source;
    const auto *T = R.Paths[0].Ret.scalarTerm();
    // C comparisons come back as boolean constants (truth values); both
    // constant kinds map to the interpreter's 0/1 ints.
    ASSERT_TRUE(T->kind() == mix::smt::TermKind::IntConst ||
                T->kind() == mix::smt::TermKind::BoolConst)
        << "non-constant result for closed program:\n"
        << Source << "\ngot: " << T->str();
    EXPECT_EQ(T->value(), *Expected) << Source;
    ++Compared;
  }
  EXPECT_EQ(Compared, 40u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CDifferentialTest,
                         ::testing::Values(13u, 37u, 59u, 73u, 97u));

namespace {

/// Evaluates a solver term under an assignment of the free int variables
/// (by variable id); bool vars default to false.
long long evalTermInt(const mix::smt::Term *T,
                      const std::map<unsigned, long long> &IntVals);

bool evalTermBool(const mix::smt::Term *T,
                  const std::map<unsigned, long long> &IntVals) {
  using mix::smt::TermKind;
  switch (T->kind()) {
  case TermKind::BoolConst:
    return T->value() != 0;
  case TermKind::BoolVar:
    return false;
  case TermKind::EqInt:
    return evalTermInt(T->operand(0), IntVals) ==
           evalTermInt(T->operand(1), IntVals);
  case TermKind::Lt:
    return evalTermInt(T->operand(0), IntVals) <
           evalTermInt(T->operand(1), IntVals);
  case TermKind::Le:
    return evalTermInt(T->operand(0), IntVals) <=
           evalTermInt(T->operand(1), IntVals);
  case TermKind::EqBool:
    return evalTermBool(T->operand(0), IntVals) ==
           evalTermBool(T->operand(1), IntVals);
  case TermKind::Not:
    return !evalTermBool(T->operand(0), IntVals);
  case TermKind::And:
    return evalTermBool(T->operand(0), IntVals) &&
           evalTermBool(T->operand(1), IntVals);
  case TermKind::Or:
    return evalTermBool(T->operand(0), IntVals) ||
           evalTermBool(T->operand(1), IntVals);
  case TermKind::IteBool:
    return evalTermBool(T->operand(0), IntVals)
               ? evalTermBool(T->operand(1), IntVals)
               : evalTermBool(T->operand(2), IntVals);
  default:
    ADD_FAILURE() << "unexpected bool term " << T->str();
    return false;
  }
}

long long evalTermInt(const mix::smt::Term *T,
                      const std::map<unsigned, long long> &IntVals) {
  using mix::smt::TermKind;
  switch (T->kind()) {
  case TermKind::IntConst:
    return T->value();
  case TermKind::IntVar: {
    auto It = IntVals.find(T->varId());
    return It == IntVals.end() ? 0 : It->second;
  }
  case TermKind::Add:
    return evalTermInt(T->operand(0), IntVals) +
           evalTermInt(T->operand(1), IntVals);
  case TermKind::Sub:
    return evalTermInt(T->operand(0), IntVals) -
           evalTermInt(T->operand(1), IntVals);
  case TermKind::Neg:
    return -evalTermInt(T->operand(0), IntVals);
  case TermKind::MulConst:
    return T->value() * evalTermInt(T->operand(0), IntVals);
  case TermKind::IteInt:
    return evalTermBool(T->operand(0), IntVals)
               ? evalTermInt(T->operand(1), IntVals)
               : evalTermInt(T->operand(2), IntVals);
  case TermKind::BoolConst:
    return T->value();
  default:
    return evalTermBool(T, IntVals) ? 1 : 0;
  }
}

/// A generator variant whose main takes two symbolic ints.
class CSymbolicProgramGenerator {
public:
  explicit CSymbolicProgramGenerator(std::mt19937 &Rng) : Rng(Rng) {}

  std::string generate() {
    Vars = {"a", "b"};
    std::string Out = "int helper(int x, int y) {\n"
                      "  if (x > y) { return x - y; }\n"
                      "  return y - x;\n"
                      "}\n";
    Out += "int main(int a, int b) {\n";
    unsigned NumLocals = 1 + Rng() % 2;
    for (unsigned I = 0; I != NumLocals; ++I) {
      // Build the initializer before the variable enters scope, so it
      // cannot reference itself.
      std::string Init = expr(1);
      Vars.push_back("v" + std::to_string(I));
      Out += "  int v" + std::to_string(I) + " = " + Init + ";\n";
    }
    unsigned NumStmts = 2 + Rng() % 4;
    for (unsigned I = 0; I != NumStmts; ++I)
      Out += stmt();
    Out += "  return " + expr(2) + ";\n}\n";
    return Out;
  }

private:
  std::string var() { return Vars[Rng() % Vars.size()]; }

  std::string expr(unsigned Depth) {
    if (Depth == 0)
      return Rng() % 2 ? var() : std::to_string((long long)(Rng() % 9) - 4);
    switch (Rng() % 5) {
    case 0:
      return "(" + expr(Depth - 1) + " + " + expr(Depth - 1) + ")";
    case 1:
      return "(" + expr(Depth - 1) + " - " + expr(Depth - 1) + ")";
    case 2:
      return "helper(" + expr(Depth - 1) + ", " + expr(Depth - 1) + ")";
    default:
      return var();
    }
  }

  std::string stmt() {
    switch (Rng() % 4) {
    case 0:
      return "  " + var() + " = " + expr(2) + ";\n";
    case 1: {
      const char *Ops[] = {"<", ">", "<=", ">=", "==", "!="};
      return "  if (" + expr(1) + " " + Ops[Rng() % 6] + " " + expr(1) +
             ") { " + var() + " = " + expr(1) + "; } else { " + var() +
             " = " + expr(1) + "; }\n";
    }
    case 2: {
      // A conditionally-aimed pointer: Morris-style conditional writes.
      std::string P = "p" + std::to_string(Counter++);
      std::string T1 = var(), T2 = var();
      return "  int *" + P + ";\n  if (" + expr(1) + " > 0) { " + P +
             " = &" + T1 + "; } else { " + P + " = &" + T2 + "; }\n  *" +
             P + " = *" + P + " + 1;\n";
    }
    default:
      return "  " + var() + " = helper(" + var() + ", " + expr(1) +
             ");\n";
    }
  }

  std::mt19937 &Rng;
  std::vector<std::string> Vars;
  unsigned Counter = 0;
};

/// Runs the interpreter on a variant of the program with `a`/`b` pinned
/// to concrete values by prepending a shim.
std::optional<long long> interpretWithInputs(const std::string &Source,
                                             long long A, long long B) {
  std::string Shim = Source + "\nint shim(void) { return main(" +
                     std::to_string(A) + ", " + std::to_string(B) +
                     "); }\n";
  CAstContext Ctx;
  DiagnosticEngine Diags;
  const CProgram *P = parseC(Shim, Ctx, Diags);
  if (!P)
    return std::nullopt;
  CInterp Interp(*P);
  return Interp.run("shim");
}

} // namespace

/// The full-executor property: for every concrete input, exactly one
/// feasible path's condition holds, and that path's return value
/// evaluates to the concrete result.
class CSymbolicDifferentialTest : public ::testing::TestWithParam<unsigned> {
};

TEST_P(CSymbolicDifferentialTest, PathsPartitionInputsAndAgree) {
  std::mt19937 Rng(GetParam());
  for (int Round = 0; Round != 15; ++Round) {
    CSymbolicProgramGenerator Gen(Rng);
    std::string Source = Gen.generate();

    CAstContext Ctx;
    DiagnosticEngine Diags;
    const CProgram *P = parseC(Source, Ctx, Diags);
    ASSERT_NE(P, nullptr) << Source << "\n" << Diags.str();

    mix::smt::TermArena Terms;
    mix::smt::SmtSolver Solver(Terms);
    CSymOptions Opts;
    Opts.LoopBound = 16;
    mix::obs::MetricsRegistry Reg;
    Opts.Metrics = &Reg;
    CSymExecutor Exec(*P, Ctx, Diags, Terms, Solver, Opts);
    CSymResult R = Exec.runFunction(P->findFunc("main"));
    ASSERT_GT(Reg.counterValue("ir.lower.misses"), 0u) << Source;
    ASSERT_FALSE(R.Incomplete) << Source;
    ASSERT_EQ(R.ParamTerms.size(), 2u);
    unsigned AVar = R.ParamTerms[0]->varId();
    unsigned BVar = R.ParamTerms[1]->varId();

    for (long long A = -3; A <= 3; A += 2)
      for (long long B = -2; B <= 4; B += 3) {
        std::optional<long long> Expected =
            interpretWithInputs(Source, A, B);
        ASSERT_TRUE(Expected.has_value()) << Source;

        std::map<unsigned, long long> Vals{{AVar, A}, {BVar, B}};
        unsigned Matching = 0;
        long long Got = 0;
        for (const auto &Path : R.Paths) {
          if (!evalTermBool(Path.Path, Vals))
            continue;
          ++Matching;
          ASSERT_TRUE(Path.Returned && Path.Ret.isScalar()) << Source;
          Got = evalTermInt(Path.Ret.scalarTerm(), Vals);
        }
        ASSERT_EQ(Matching, 1u)
            << "inputs (" << A << "," << B << ") matched " << Matching
            << " paths in:\n"
            << Source;
        EXPECT_EQ(Got, *Expected)
            << "inputs (" << A << "," << B << ") in:\n"
            << Source;
      }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CSymbolicDifferentialTest,
                         ::testing::Values(5u, 21u, 55u, 89u));
