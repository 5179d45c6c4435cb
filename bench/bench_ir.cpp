//===--- bench_ir.cpp - Block-execution throughput of both executors ------===//
//
// Part of the Mix reproduction of "Mixing Type Checking and Symbolic
// Execution" (PLDI 2010).
//
// One axis per executor and workload shape:
//
//  - ConcreteHeavy / DeepBranch: the core-language executor (SymExecutor)
//    on two ProgramGen corpora — no symbolic inputs at all (every guard
//    concrete), and symbolic ints/bools that fork heavily.
//
//  - MiniCConcrete / MiniCBranchy: CSymExecutor's mini-C bytecode
//    interpreter on a straight-line store-heavy body and a
//    pointer/branch-heavy one. The executor lives as long as the
//    benchmark, so warm iterations exercise the lowering cache exactly
//    like a warm daemon session (ir.lower.hits counts them).
//
//===----------------------------------------------------------------------===//

#include "BenchReport.h"
#include "ProgramGen.h"

#include "cfront/CParser.h"
#include "csym/CSymExecutor.h"
#include "observe/Metrics.h"
#include "solver/SolverFactory.h"
#include "symexec/SymExecutor.h"

#include <benchmark/benchmark.h>

#include <memory>
#include <random>
#include <vector>

using namespace mix;

namespace {

struct Corpus {
  AstContext Ctx;
  std::vector<const Expr *> Programs;
  bool Symbolic;
};

/// No symbolic inputs: every leaf is a literal, every guard concrete.
/// Deep programs (depth 12) keep per-run setup from drowning out
/// per-node interpretation cost. Programs that end in a (deterministic)
/// error are filtered out so every run walks the whole expression.
Corpus &concreteHeavyCorpus() {
  static Corpus *C = [] {
    auto *Cp = new Corpus();
    Cp->Symbolic = false;
    std::mt19937 Rng(42);
    testgen::ProgramGenerator Gen(Cp->Ctx, Rng, /*AllowBlocks=*/false,
                                  /*AllowRefs=*/false, /*AllowCalls=*/false);
    testgen::ProgramGenerator::Scope Empty;

    SymArena Arena(Cp->Ctx.types());
    DiagnosticEngine Diags;
    SymExecutor Probe(Arena, Diags);
    while (Cp->Programs.size() < 16) {
      const Expr *E = Gen.genInt(Empty, 12);
      SymExecResult R = Probe.run(E, SymEnv());
      if (R.Paths.size() == 1 && !R.Paths[0].IsError)
        Cp->Programs.push_back(E);
    }
    return Cp;
  }();
  return *C;
}

/// Symbolic ints and bools in scope: branches fork, paths multiply.
Corpus &deepBranchCorpus() {
  static Corpus *C = [] {
    auto *Cp = new Corpus();
    Cp->Symbolic = true;
    std::mt19937 Rng(7);
    testgen::ProgramGenerator Gen(Cp->Ctx, Rng, /*AllowBlocks=*/false);
    testgen::ProgramGenerator::Scope S;
    S.IntVars = {"x", "y"};
    S.BoolVars = {"b"};
    for (int I = 0; I != 24; ++I)
      Cp->Programs.push_back(Gen.genInt(S, 5));
    return Cp;
  }();
  return *C;
}

void runCorpus(benchmark::State &State, Corpus &C) {
  obs::MetricsRegistry Reg;
  SymExecOptions Opts;
  Opts.Metrics = &Reg;
  SymArena Arena(C.Ctx.types());
  DiagnosticEngine Diags;
  SymExecutor Exec(Arena, Diags, Opts);

  SymEnv Env;
  if (C.Symbolic) {
    Env["x"] = Arena.freshVar(C.Ctx.types().intType(), false, "x");
    Env["y"] = Arena.freshVar(C.Ctx.types().intType(), false, "y");
    Env["b"] = Arena.freshVar(C.Ctx.types().boolType(), false, "b");
  }

  size_t Paths = 0;
  for (auto _ : State) {
    for (const Expr *E : C.Programs) {
      SymExecResult R = Exec.run(E, Env);
      Paths += R.Paths.size();
      benchmark::DoNotOptimize(R.Paths.data());
    }
  }

  State.SetItemsProcessed((int64_t)(State.iterations() * C.Programs.size()));
  State.counters["paths"] = (double)Paths;
  State.counters["solver_skips"] =
      (double)Reg.counterValue("exec.branches.concrete");
  State.counters["terms_built"] =
      (double)Reg.counterValue("exec.terms.built");
}

//===----------------------------------------------------------------------===//
// Mini-C axis: the IR engine under CSymExecutor's memory model
//===----------------------------------------------------------------------===//

/// Concrete-heavy mini-C: one path, no symbolic guards — long runs of
/// stores through pointers, struct fields, and locals. Measures
/// per-statement dispatch of the lowered bytecode.
const char *MiniCConcreteSrc = R"(struct box { int a; int b; };
int main(int argc) {
  int x = 1;
  int y = 2;
  int z = 3;
  int *p;
  int *q;
  p = &x;
  q = &y;
  struct box s;
  struct box *h;
  h = &s;
  s.a = x + y;
  s.b = s.a + z;
  *p = s.b + 4;
  *q = *p + x;
  h->a = *q - y;
  h->b = h->a + h->a;
  x = h->b + z;
  y = x - z;
  z = x + y;
  s.a = z - s.b;
  s.b = s.a + x;
  *p = s.a + s.b;
  *q = *p - z;
  h->a = *p + *q;
  h->b = h->a - y;
  x = h->a + h->b;
  y = x + z;
  z = y - x;
  return x + y + z;
}
)";

/// Pointer/branch-heavy mini-C: symbolic argument drives forks, a
/// may-be-null pointer threads through a loop and an inlined call, so
/// path and solver work dominate.
const char *MiniCBranchySrc = R"(int pick(int a, int *w) {
  if (a > 0) { return *w; }
  return 0;
}
int main(int argc) {
  int x = argc;
  int y = 0;
  int *p;
  int *q;
  p = &x;
  if (x > 0) { q = p; } else { q = NULL; }
  while (x > 0) {
    x = x - 1;
    y = y + pick(x, q);
  }
  if (q == NULL) { y = y - 1; } else { y = *q; }
  return y;
}
)";

void runMiniCCorpus(benchmark::State &State, const char *Src) {
  obs::MetricsRegistry Reg;
  c::CAstContext Ctx;
  DiagnosticEngine Diags;
  const c::CProgram *P = c::parseC(Src, Ctx, Diags);
  smt::TermArena Terms;
  smt::SmtOptions SO;
  SO.Metrics = &Reg;
  std::unique_ptr<smt::ISolver> Solver =
      smt::createSolver({"smtlite"}, Terms, SO);
  c::CSymOptions Opts;
  Opts.Metrics = &Reg;
  c::CSymExecutor Exec(*P, Ctx, Diags, Terms, *Solver, Opts);
  const c::CFuncDecl *F = P->findFunc("main");

  size_t Paths = 0;
  for (auto _ : State) {
    c::CSymResult R = Exec.runFunction(F);
    Paths += R.Paths.size();
    benchmark::DoNotOptimize(&R);
  }

  State.SetItemsProcessed((int64_t)State.iterations());
  State.counters["paths"] = (double)Paths;
  State.counters["solver_queries"] =
      (double)Reg.counterValue("solver.queries");
  State.counters["lower_hits"] = (double)Reg.counterValue("ir.lower.hits");
}

void BM_MiniCConcrete(benchmark::State &State) {
  runMiniCCorpus(State, MiniCConcreteSrc);
}
void BM_MiniCBranchy(benchmark::State &State) {
  runMiniCCorpus(State, MiniCBranchySrc);
}
void BM_ConcreteHeavy(benchmark::State &State) {
  runCorpus(State, concreteHeavyCorpus());
}
void BM_DeepBranch(benchmark::State &State) {
  runCorpus(State, deepBranchCorpus());
}

} // namespace

BENCHMARK(BM_ConcreteHeavy)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_DeepBranch)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_MiniCConcrete)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_MiniCBranchy)->Unit(benchmark::kMicrosecond);

MIX_BENCH_MAIN(ir)
