//===--- CIrDiffTest.cpp - Mini-C IR engine differential harness ----------===//
//
// Part of the Mix reproduction of "Mixing Type Checking and Symbolic
// Execution" (PLDI 2010).
//
// The mini-C IR engine is the only body executor, so this harness checks
// it against two references that share none of its code paths:
//  - the other solver backend: smtlite and dnf decide every feasibility
//    query independently, and a run must render identically under both;
//  - frozen digests of the retired AST walker's renderings of the same
//    generated bodies (recorded from the walker before its removal), so
//    any drift in warnings, fresh-term numbering, object allocation
//    order, stores, or the solver conversation shows up as a digest
//    mismatch naming the seed and backend.
// The concrete interpreter (CInterpTest.cpp) is the third oracle.
//
//===----------------------------------------------------------------------===//

#include "cfront/CParser.h"
#include "csym/CSymExecutor.h"
#include "observe/Metrics.h"
#include "solver/SolverFactory.h"
#include "support/Hash.h"

#include <gtest/gtest.h>

#include <random>

using namespace mix;

namespace {

/// One mini-C run, fully rendered for comparison. The render captures
/// everything the executor's behavior is observable through — per-path
/// conditions, return values, final stores, diagnostics, stats — and
/// SolverQueries pins the *term traffic*.
struct CDiffRun {
  std::vector<std::string> Render;
  uint64_t SolverQueries = 0;
  uint64_t LowerMisses = 0;
  uint64_t LowerHits = 0;
  uint64_t ExecPaths = 0;
};

CDiffRun runMiniC(const std::string &Source, const std::string &Entry,
                  const std::string &Backend) {
  CDiffRun R;
  c::CAstContext Ctx;
  DiagnosticEngine Diags;
  const c::CProgram *P = c::parseC(Source, Ctx, Diags);
  EXPECT_NE(P, nullptr) << Diags.str() << "\n" << Source;
  if (!P)
    return R;
  smt::TermArena Terms;
  obs::MetricsRegistry Reg;
  smt::SmtOptions SO;
  SO.Metrics = &Reg;
  std::unique_ptr<smt::ISolver> Solver =
      smt::createSolver({Backend}, Terms, SO);
  EXPECT_NE(Solver, nullptr) << Backend;
  if (!Solver)
    return R;
  c::CSymOptions Opts;
  Opts.Metrics = &Reg;
  c::CSymExecutor Exec(*P, Ctx, Diags, Terms, *Solver, Opts);

  c::CSymResult Res = Exec.runFunction(P->findFunc(Entry));
  for (const c::CSymResult::PathOut &PO : Res.Paths) {
    std::string S = "path " + PO.Path->str();
    S += PO.Returned ? " | ret " + PO.Ret.str() : " | fellthrough";
    S += " | store";
    for (const auto &KV : PO.Store.Cells)
      S += " [" + std::to_string(KV.first.first) + "." + KV.first.second +
           "]=" + KV.second.str();
    R.Render.push_back(std::move(S));
  }
  R.Render.push_back(Res.Incomplete ? "incomplete" : "exhaustive");
  R.Render.push_back("warnings " + std::to_string(Res.WarningCount));
  R.Render.push_back("diags " + Diags.str());
  const c::CSymExecutor::Stats &St = Exec.stats();
  R.Render.push_back(
      "stats " + std::to_string(St.PathsExplored) + " " +
      std::to_string(St.ForksPruned) + " " + std::to_string(St.NullChecks) +
      " " + std::to_string(St.CallsInlined));
  R.SolverQueries = Reg.counterValue("solver.queries");
  R.LowerMisses = Reg.counterValue("ir.lower.misses");
  R.LowerHits = Reg.counterValue("ir.lower.hits");
  R.ExecPaths = Reg.counterValue("exec.paths");
  return R;
}

/// Folds one run into a digest: every rendered line plus the solver
/// query count.
void digestRun(StableHasher &H, const CDiffRun &R) {
  for (const std::string &Line : R.Render)
    H.str(Line);
  H.u64(R.SolverQueries);
}

/// Alias- and call-heavy generated mini-C bodies: every statement is a
/// construct the lowering models, sampled over shared locals, pointers
/// into them, a struct, heap cells, and direct plus function-pointer
/// calls.
std::string genMiniCProgram(std::mt19937 &Rng) {
  static const char *Pool[] = {
      "  x = x + y;\n",
      "  y = y - 1;\n",
      "  x = helper(x, p);\n",
      "  y = fp(y, q);\n",
      "  p = &x;\n",
      "  q = (int*) malloc(sizeof(int));\n",
      "  *p = x + 1;\n",
      "  x = *q;\n",
      "  p = NULL;\n",
      "  n.val = x;\n",
      "  y = n.val;\n",
      "  h->val = y;\n",
      "  x = h->val;\n",
      "  h->next = NULL;\n",
      "  p = q;\n",
      "  if (x < y) { x = x + 1; } else { y = *p; }\n",
      "  while (x > 0) { x = x - 1; }\n",
      "  if (!y) { q = &x; x = helper(y, q); }\n",
  };
  std::string Src = R"(struct node { int val; struct node *next; };
int helper(int a, int *w) { if (a > 0) { return a; } return 0; }
int main(int argc) {
  int x = argc;
  int y = 2;
  int *p;
  int *q;
  p = &x;
  q = &y;
  struct node n;
  struct node *h;
  n.val = 0;
  h = &n;
  int (*fp)(int, int*);
  fp = helper;
)";
  unsigned N = 3 + Rng() % 5;
  for (unsigned I = 0; I != N; ++I)
    Src += Pool[Rng() % (sizeof(Pool) / sizeof(Pool[0]))];
  Src += "  return x + y;\n}\n";
  return Src;
}

/// The AST walker's digest of the 40 generated bodies of each seed,
/// frozen before the walker was deleted. The walker rendered every body
/// identically under smtlite and dnf, query counts included, so one
/// digest per seed covers both backends.
uint64_t walkerDigest(unsigned Seed) {
  switch (Seed) {
  case 1:
    return 0x976e08b1908e9137ull;
  case 2:
    return 0x6b055129a3e316bbull;
  }
  ADD_FAILURE() << "no frozen digest for seed " << Seed;
  return 0;
}

class CIrDiffTest : public ::testing::TestWithParam<unsigned> {};

TEST_P(CIrDiffTest, GeneratedMiniCBodiesAgreeAcrossBackends) {
  std::mt19937 Rng(GetParam() * 131);
  StableHasher Smtlite, Dnf;
  for (int Round = 0; Round != 40; ++Round) {
    std::string Src = genMiniCProgram(Rng);
    CDiffRun A = runMiniC(Src, "main", "smtlite");
    CDiffRun B = runMiniC(Src, "main", "dnf");
    ASSERT_EQ(A.Render, B.Render) << "backends diverged on:\n" << Src;
    // The bodies really ran on the IR. (ExecPaths may legitimately be
    // 0: a definite-null deref prunes every path.)
    EXPECT_GT(A.LowerMisses, 0u) << Src;
    EXPECT_GT(B.LowerMisses, 0u) << Src;
    digestRun(Smtlite, A);
    digestRun(Dnf, B);
  }
  EXPECT_EQ(Smtlite.digest(), walkerDigest(GetParam()));
  EXPECT_EQ(Dnf.digest(), walkerDigest(GetParam()));
}

INSTANTIATE_TEST_SUITE_P(Seeds, CIrDiffTest, ::testing::Values(1u, 2u));

TEST(CIrEngineTest, NonLValueTargetWarnsAndEndsThePath) {
  // `a + 1` in lvalue position: the lowered body warns at the target's
  // location and the path ends there, exactly as the retired walker did
  // (its frozen rendering is the digest below).
  const std::string Src = R"(int bad(int a) {
  a + 1 = 2;
  return a;
}
)";
  CDiffRun A = runMiniC(Src, "bad", "smtlite");
  CDiffRun B = runMiniC(Src, "bad", "dnf");
  EXPECT_EQ(A.Render, B.Render);
  EXPECT_EQ(A.LowerMisses, 1u);
  EXPECT_EQ(A.ExecPaths, 0u);
  bool Warned = false;
  for (const std::string &S : A.Render)
    if (S.find("2:5: warning: expression is not an lvalue") !=
        std::string::npos)
      Warned = true;
  EXPECT_TRUE(Warned);
  StableHasher H;
  digestRun(H, A);
  EXPECT_EQ(H.digest(), 0xf924843b67856d31ull);
}

TEST(CIrEngineTest, LoweredBodiesAreCachedPerFunction) {
  // Recursion re-enters the same body: the second entry must be served
  // from the per-function bytecode cache (hits), not re-lowered
  // (misses).
  const std::string Src = R"(int down(int k) {
  if (k > 0) { return down(k - 1); }
  return 0;
}
)";
  CDiffRun A = runMiniC(Src, "down", "smtlite");
  EXPECT_EQ(A.LowerMisses, 1u);
  EXPECT_GT(A.LowerHits, 0u);
  CDiffRun B = runMiniC(Src, "down", "dnf");
  EXPECT_EQ(A.Render, B.Render);
}

} // namespace
