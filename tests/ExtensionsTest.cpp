//===--- ExtensionsTest.cpp - The paper's sketched refinements ------------===//
//
// Part of the Mix reproduction of "Mixing Type Checking and Symbolic
// Execution" (PLDI 2010).
//
// Tests for two refinements the paper describes but did not implement:
// effect-limited havoc at typed blocks (Section 3.2) and the precise
// dereference rule (Section 3.1's "consistency up to a set of writes U").
//
//===----------------------------------------------------------------------===//

#include "lang/Parser.h"
#include "mix/MixChecker.h"
#include "solver/SmtSolver.h"
#include "symexec/Effects.h"
#include "symexec/SymExecutor.h"

#include <gtest/gtest.h>

using namespace mix;

// === write-effect inference ==================================================

namespace {

WriteEffects effectsOf(std::string_view Source) {
  static AstContext Ctx; // effects only inspect syntax
  DiagnosticEngine Diags;
  const Expr *E = parseExpression(Source, Ctx, Diags);
  EXPECT_NE(E, nullptr) << Diags.str();
  return computeWriteEffects(E);
}

} // namespace

TEST(EffectsTest, PureExpressionsHaveNoEffect) {
  WriteEffects E = effectsOf("1 + x - (if b then 2 else 3)");
  EXPECT_FALSE(E.MayWriteUnknown);
  EXPECT_TRUE(E.Vars.empty());
}

TEST(EffectsTest, DirectWritesAreCollected) {
  WriteEffects E = effectsOf("(x := 1; y := true)");
  EXPECT_FALSE(E.MayWriteUnknown);
  EXPECT_EQ(E.Vars, (std::set<std::string>{"x", "y"}));
}

TEST(EffectsTest, LocalFreshRefWritesAreInvisible) {
  WriteEffects E = effectsOf("let t = ref 0 in (t := 1; !t)");
  EXPECT_FALSE(E.MayWriteUnknown);
  EXPECT_TRUE(E.Vars.empty());
}

TEST(EffectsTest, LocalAliasWritesAreUnknown) {
  // t aliases x; a write through t escapes the block.
  WriteEffects E = effectsOf("let t = x in t := 1");
  EXPECT_TRUE(E.MayWriteUnknown);
}

TEST(EffectsTest, ComputedTargetsAreUnknown) {
  EXPECT_TRUE(effectsOf("!p := 1").MayWriteUnknown);
}

TEST(EffectsTest, ApplicationsAreUnknown) {
  EXPECT_TRUE(effectsOf("f 3").MayWriteUnknown);
}

TEST(EffectsTest, ConditionalWritesAreMayWrites) {
  WriteEffects E = effectsOf("if b then x := 1 else 0");
  EXPECT_FALSE(E.MayWriteUnknown);
  EXPECT_EQ(E.Vars, (std::set<std::string>{"x"}));
}

TEST(EffectsTest, ShadowingRestoresOnExit) {
  // The inner let shadows x with a fresh ref; the later write targets
  // the outer x again. (Effects are per-branch scope.)
  WriteEffects E =
      effectsOf("((let x = ref 0 in x := 1); x := 2)");
  EXPECT_FALSE(E.MayWriteUnknown);
  EXPECT_EQ(E.Vars, (std::set<std::string>{"x"}));
}

// === effect-limited havoc in MIX =============================================

namespace {

class HavocTest : public ::testing::Test {
protected:
  std::string check(std::string_view Source,
                    SymExecOptions::HavocPolicy Policy,
                    const TypeEnv &Gamma = {}) {
    Diags.clear();
    const Expr *E = parseExpression(Source, Ctx, Diags);
    EXPECT_NE(E, nullptr) << Diags.str();
    if (!E)
      return "<parse-error>";
    MixOptions Opts;
    Opts.Exec.Havoc = Policy;
    MixChecker Mix(Ctx.types(), Diags, Opts);
    const Type *T = Mix.checkTyped(E, Gamma);
    return T ? T->str() : "<error>";
  }

  /// Runs the executor directly and returns the final value's rendering.
  std::string finalValue(std::string_view Source,
                         SymExecOptions::HavocPolicy Policy) {
    Diags.clear();
    const Expr *E = parseExpression(Source, Ctx, Diags);
    if (!E)
      return "<parse-error>";
    SymArena Arena(Ctx.types());
    SymExecOptions Opts;
    Opts.Havoc = Policy;
    SymExecutor Exec(Arena, Diags, Opts);
    Oracle.IntTy = Ctx.types().intType();
    Exec.setTypedBlockOracle(&Oracle);
    SymExecResult R = Exec.run(E, {});
    if (R.Paths.size() != 1 || R.Paths[0].IsError)
      return "<error>";
    return R.Paths[0].Value->str();
  }

  struct IntOracle : TypedBlockOracle {
    const Type *typeOfTypedBlock(const BlockExpr *, const SymEnv &,
                                 const SymState &) override {
      return IntTy;
    }
    const Type *IntTy = nullptr;
  };

  AstContext Ctx;
  DiagnosticEngine Diags;
  IntOracle Oracle;
};

} // namespace

TEST_F(HavocTest, FullHavocForgetsUntouchedCells) {
  // The typed block writes nothing, yet the paper's rule havocs all of
  // memory: the read afterwards is a deferred select, not the constant.
  const char *P = "let x = ref 41 in ({t 0 t}; !x)";
  std::string Full =
      finalValue(P, SymExecOptions::HavocPolicy::FullMemory);
  EXPECT_NE(Full.find("["), std::string::npos) << Full; // a select
}

TEST_F(HavocTest, EffectHavocKeepsUntouchedCells) {
  const char *P = "let x = ref 41 in ({t 0 t}; !x)";
  std::string Refined =
      finalValue(P, SymExecOptions::HavocPolicy::WriteEffects);
  EXPECT_EQ(Refined, "41:int");
}

TEST_F(HavocTest, EffectHavocStillForgetsWrittenCells) {
  const char *P = "let x = ref 41 in ({t x := 0 t}; !x)";
  std::string Refined =
      finalValue(P, SymExecOptions::HavocPolicy::WriteEffects);
  EXPECT_EQ(Refined.find("41"), std::string::npos) << Refined;
}

TEST_F(HavocTest, UnknownEffectsFallBackToFullHavoc) {
  // A write through a computed target: the whole memory must go.
  const char *P = "let x = ref 41 in let p = ref x in "
                  "({t !p := 0 t}; !x)";
  std::string Refined =
      finalValue(P, SymExecOptions::HavocPolicy::WriteEffects);
  EXPECT_EQ(Refined.find("41"), std::string::npos) << Refined;
}

TEST_F(HavocTest, MixAcceptsTheSameProgramsUnderBothPolicies) {
  const char *Programs[] = {
      "{s let x = ref 1 in ({t x := 2 t}; !x + 1) s}",
      "{s let x = ref 1 in ({t 9 t}; !x + 1) s}",
  };
  for (const char *P : Programs) {
    EXPECT_EQ(check(P, SymExecOptions::HavocPolicy::FullMemory), "int")
        << P;
    EXPECT_EQ(check(P, SymExecOptions::HavocPolicy::WriteEffects), "int")
        << P;
  }
}

// === precise dereference ======================================================

namespace {

class PreciseDerefTest : public ::testing::Test {
protected:
  std::string check(std::string_view Source, bool Precise,
                    const TypeEnv &Gamma = {}) {
    Diags.clear();
    const Expr *E = parseExpression(Source, Ctx, Diags);
    EXPECT_NE(E, nullptr) << Diags.str();
    if (!E)
      return "<parse-error>";
    MixOptions Opts;
    Opts.Exec.PreciseDeref = Precise;
    Opts.CheckFinalMemory = false; // isolate the SEDeref premise
    MixChecker Mix(Ctx.types(), Diags, Opts);
    const Type *T = Mix.checkTyped(E, Gamma);
    return T ? T->str() : "<error>";
  }

  /// Runs \p Source on the core executor alone, with a solver attached,
  /// over the bool refs p and q and the int y from the calling context,
  /// and returns the error messages of its paths. Unlike check(), nothing
  /// filters infeasible paths out afterwards, so this observes the
  /// solver's answer in derefMemoryOk on every path.
  std::vector<std::string> pathErrors(std::string_view Source, bool Precise) {
    Diags.clear();
    const Expr *E = parseExpression(Source, Ctx, Diags);
    EXPECT_NE(E, nullptr) << Diags.str();
    if (!E)
      return {"<parse-error>"};
    SymArena Syms(Ctx.types());
    smt::TermArena Terms;
    smt::SmtSolver Solver(Terms);
    SymToSmt Translator(Syms, Terms);
    SymExecOptions Opts;
    Opts.PreciseDeref = Precise;
    SymExecutor Exec(Syms, Diags, Opts);
    Exec.setSolver(&Solver, &Translator);
    const Type *BoolRef = Ctx.types().refType(Ctx.types().boolType());
    SymEnv Env;
    Env["p"] = Syms.freshVar(BoolRef, false, "p");
    Env["q"] = Syms.freshVar(BoolRef, false, "q");
    Env["y"] = Syms.freshVar(Ctx.types().intType(), false, "y");
    std::vector<std::string> Errors;
    for (const PathResult &P : Exec.run(E, Env).Paths)
      if (P.IsError)
        Errors.push_back(P.ErrorMessage);
    return Errors;
  }

  AstContext Ctx;
  DiagnosticEngine Diags;
};

} // namespace

TEST_F(PreciseDerefTest, ReadPastUnrelatedIllTypedWrite) {
  // x's cell is temporarily ill-typed; reading y is provably safe (two
  // distinct allocations), but the baseline global |- m ok rejects it.
  const char *P = "{s let x = ref 1 in let y = ref 2 in "
                  "(x := true; !y + 1) s}";
  EXPECT_EQ(check(P, /*Precise=*/false), "<error>");
  EXPECT_EQ(check(P, /*Precise=*/true), "int");
}

TEST_F(PreciseDerefTest, ReadOfTheBadCellIsStillRejected) {
  const char *P = "{s let x = ref 1 in (x := true; !x) s}";
  EXPECT_EQ(check(P, false), "<error>");
  EXPECT_EQ(check(P, true), "<error>");
}

TEST_F(PreciseDerefTest, UnknownPointerStillRejected) {
  // p comes from Gamma; it could alias x, so the read must not be
  // excused even in precise mode.
  TypeEnv Gamma;
  Gamma["p"] = Ctx.types().refType(Ctx.types().intType());
  const char *P = "{s let x = ref 1 in (p := 2; x := true; !p) s}";
  // Note the roles: the *bad* write is to x (an allocation), the read is
  // through p (unknown). x being an allocation means p cannot alias it
  // (p predates it), so precise mode accepts.
  EXPECT_EQ(check(P, false, Gamma), "<error>");
  EXPECT_EQ(check(P, true, Gamma), "int");

  // Flip the roles: the bad write is through unknown p, the read through
  // unknown q — possible alias, rejected either way.
  TypeEnv Gamma2;
  Gamma2["p"] = Ctx.types().refType(Ctx.types().boolType());
  Gamma2["q"] = Ctx.types().refType(Ctx.types().boolType());
  // Writing an int through a bool ref is the inconsistency.
  const char *P2 = "{s (p := 1; !q) s}";
  EXPECT_EQ(check(P2, false, Gamma2), "<error>");
  EXPECT_EQ(check(P2, true, Gamma2), "<error>");
}

TEST_F(PreciseDerefTest, PathConditionProvesUnknownAddressesDistinct) {
  // p and q are unknown addresses, so neither syntax nor allocation
  // freshness separates them: only the solver can excuse reading q past
  // the ill-typed write at p. Under 0 < y and y < 0 the path condition is
  // unsatisfiable, so p = q is too, and the read is accepted.
  const char *P =
      "if 0 < y then (if y < 0 then (p := 1; !q) else true) else true";
  EXPECT_EQ(pathErrors(P, /*Precise=*/true), std::vector<std::string>{});
  // Without the refinement the same read fails |- m ok.
  EXPECT_EQ(pathErrors(P, /*Precise=*/false).size(), 1u);
}

TEST_F(PreciseDerefTest, SatisfiablePathLeavesUnknownAddressesAliased) {
  // The mirror image: under 0 < y and y < 5 the path condition allows
  // p = q, so the solver answers Sat and the read is rejected.
  const char *P =
      "if 0 < y then (if y < 5 then (p := 1; !q) else true) else true";
  std::vector<std::string> Errors = pathErrors(P, /*Precise=*/true);
  ASSERT_EQ(Errors.size(), 1u);
  EXPECT_NE(Errors[0].find("|- m ok fails"), std::string::npos) << Errors[0];
}

TEST_F(PreciseDerefTest, OverwriteStillClearsWithoutPreciseMode) {
  // Sanity: Overwrite-Ok continues to work in both modes.
  const char *P = "{s let x = ref 1 in (x := true; x := 2; !x) s}";
  EXPECT_EQ(check(P, false), "int");
  EXPECT_EQ(check(P, true), "int");
}
