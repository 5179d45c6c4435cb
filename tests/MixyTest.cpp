//===--- MixyTest.cpp - End-to-end tests for the MIXY driver --------------===//
//
// Part of the Mix reproduction of "Mixing Type Checking and Symbolic
// Execution" (PLDI 2010).
//
// These tests reproduce Section 4.5: for each vsftpd case study, pure
// type qualifier inference reports a false positive that the annotated
// MIXY run eliminates.
//
//===----------------------------------------------------------------------===//

#include "cfront/CParser.h"
#include "mixy/Mixy.h"
#include "mixy/VsftpdMini.h"
#include "observe/Metrics.h"

#include <gtest/gtest.h>

using namespace mix::c;
using mix::DiagnosticEngine;

namespace {

class MixyTest : public ::testing::Test {
protected:
  /// Pure type qualifier inference (the baseline): warnings reported.
  unsigned baselineWarnings(const std::string &Source) {
    CAstContext Ctx;
    DiagnosticEngine Diags;
    const CProgram *P = parseC(Source, Ctx, Diags);
    EXPECT_NE(P, nullptr) << Diags.str();
    if (!P)
      return ~0u;
    QualInference Inf(*P, Ctx, Diags);
    Inf.analyzeAll();
    Inf.solve();
    return Inf.reportWarnings();
  }

  /// The full MIXY analysis from main.
  unsigned mixyWarnings(const std::string &Source,
                        MixyOptions Opts = MixyOptions(),
                        MixyStats *StatsOut = nullptr) {
    CAstContext Ctx;
    DiagnosticEngine Diags;
    const CProgram *P = parseC(Source, Ctx, Diags);
    EXPECT_NE(P, nullptr) << Diags.str();
    if (!P)
      return ~0u;
    MixyAnalysis Mixy(*P, Ctx, Diags, Opts);
    unsigned W = Mixy.run(MixyAnalysis::StartMode::Typed);
    if (StatsOut)
      *StatsOut = Mixy.stats();
    LastDiags = Diags.str();
    return W;
  }

  std::string LastDiags;
};

} // namespace

// --- Case 1: flow and path insensitivity in sockaddr_clear ------------------

TEST_F(MixyTest, Case1BaselineHasFalsePositive) {
  EXPECT_GE(baselineWarnings(corpus::vsftpdCase(1, false)), 1u);
}

TEST_F(MixyTest, Case1SymbolicBlockEliminatesWarning) {
  EXPECT_EQ(mixyWarnings(corpus::vsftpdCase(1, true)), 0u) << LastDiags;
}

TEST_F(MixyTest, Case1UnannotatedMixyStillWarns) {
  // Without the MIX(symbolic) annotation, MIXY's typed mode is just
  // qualifier inference and keeps the false positive.
  EXPECT_GE(mixyWarnings(corpus::vsftpdCase(1, false)), 1u);
}

// --- Case 2: path and context insensitivity in str_next_dirent --------------

TEST_F(MixyTest, Case2BaselineHasFalsePositive) {
  EXPECT_GE(baselineWarnings(corpus::vsftpdCase(2, false)), 1u);
}

TEST_F(MixyTest, Case2SymbolicBlockEliminatesWarning) {
  EXPECT_EQ(mixyWarnings(corpus::vsftpdCase(2, true)), 0u) << LastDiags;
}

// --- Case 3: flow and path insensitivity in dns_resolve and main ------------

TEST_F(MixyTest, Case3BaselineHasFalsePositive) {
  EXPECT_GE(baselineWarnings(corpus::vsftpdCase(3, false)), 1u);
}

TEST_F(MixyTest, Case3SymbolicBlockEliminatesWarnings) {
  EXPECT_EQ(mixyWarnings(corpus::vsftpdCase(3, true)), 0u) << LastDiags;
}

// --- Case 4: helping symbolic execution with typed blocks --------------------

TEST_F(MixyTest, Case4WithoutTypedBlockWarns) {
  // sysutil_exit is symbolic; without the typed annotation on
  // sysutil_exit_BLOCK the executor hits the unknown function pointer.
  EXPECT_GE(mixyWarnings(corpus::vsftpdCase(4, false)), 1u);
}

TEST_F(MixyTest, Case4TypedBlockEnablesSymbolicExecution) {
  EXPECT_EQ(mixyWarnings(corpus::vsftpdCase(4, true)), 0u) << LastDiags;
}

// --- full corpus --------------------------------------------------------------

TEST_F(MixyTest, FullCorpusBaselineWarnsAnnotatedDoesNot) {
  // The baseline reports the (single) violated nonnull bound; our
  // counting is per violated annotation, with the witness paths carrying
  // the individual flows.
  EXPECT_GE(baselineWarnings(corpus::vsftpdFull(false)), 1u);
  // With default options the merged corpus keeps one residual warning:
  // context-insensitive alias restoration (Section 4.2) links Case 1's
  // g_addr with Case 3's p_addr through sockaddr_clear's parameter —
  // exactly the pollution Section 4.6 reports ("nested typed blocks are
  // polluted by aliasing relationships from the entire program").
  EXPECT_LE(mixyWarnings(corpus::vsftpdFull(true)), 1u);
  // Disabling alias restoration isolates the cases and removes every
  // false positive.
  MixyOptions NoAlias;
  NoAlias.RestoreAliasing = false;
  EXPECT_EQ(mixyWarnings(corpus::vsftpdFull(true), NoAlias), 0u)
      << LastDiags;
}

TEST_F(MixyTest, StatsReflectBlockSwitching) {
  MixyStats Stats;
  MixyOptions NoAlias;
  NoAlias.RestoreAliasing = false;
  ASSERT_EQ(mixyWarnings(corpus::vsftpdFull(true), NoAlias, &Stats), 0u)
      << LastDiags;
  EXPECT_GE(Stats.SymbolicCallsFromTyped, 3u); // the annotated frontiers
  EXPECT_GE(Stats.SymbolicBlockRuns, 3u);
  EXPECT_GE(Stats.TypedCallsFromSymbolic, 1u); // sysutil_free etc.
}

// --- caching (Section 4.3) ----------------------------------------------------

TEST_F(MixyTest, CacheHitsOnRepeatedCompatibleContexts) {
  // Two calls to the same symbolic function with the same context: the
  // second is served from the cache.
  const char *Source = R"(
void sysutil_free(void * nonnull p_ptr) MIX(typed);
int g;
void helper(int *p) MIX(symbolic) {
  if (p != NULL) { sysutil_free((void*)p); }
}
int main(void) {
  helper(&g);
  helper(&g);
  return 0;
}
)";
  MixyStats Stats;
  EXPECT_EQ(mixyWarnings(Source, MixyOptions(), &Stats), 0u) << LastDiags;
  EXPECT_GE(Stats.SymbolicCacheHits, 1u);

  MixyOptions NoCache;
  NoCache.EnableCache = false;
  MixyStats Stats2;
  EXPECT_EQ(mixyWarnings(Source, NoCache, &Stats2), 0u);
  EXPECT_EQ(Stats2.SymbolicCacheHits, 0u);
  EXPECT_GT(Stats2.SymbolicBlockRuns, Stats.SymbolicBlockRuns);
}

// --- recursion (Section 4.4) ---------------------------------------------------

TEST_F(MixyTest, RecursionBetweenTypedAndSymbolicBlocks) {
  // A typed function and a symbolic function that call each other; the
  // block stack must detect the cycle and converge instead of looping.
  const char *Source = R"(
void sysutil_free(void * nonnull p_ptr) MIX(typed);
void typed_step(int *p, int n) MIX(typed);
void symbolic_step(int *p, int n) MIX(symbolic) {
  if (n > 0) { typed_step(p, n - 1); }
}
void typed_step(int *p, int n) MIX(typed) {
  if (n > 0) { symbolic_step(p, n - 1); }
}
int g;
int main(void) {
  symbolic_step(&g, 3);
  return 0;
}
)";
  MixyStats Stats;
  EXPECT_EQ(mixyWarnings(Source, MixyOptions(), &Stats), 0u) << LastDiags;
  EXPECT_GE(Stats.RecursionsDetected, 1u);
}

// --- fixpoint (Section 4.1) -----------------------------------------------------

TEST_F(MixyTest, FixpointPropagatesLateNullConstraints) {
  // The paper's two-symbolic-block example: analyzed in source order, the
  // free-side block sees x as optimistically nonnull until the null-side
  // block's constraint arrives; the fixpoint re-runs it and finds the
  // error.
  const char *Source = R"(
void sysutil_free(void * nonnull p_ptr) MIX(typed);
int *x;
void use_block(void) MIX(symbolic) {
  sysutil_free((void*)x);
}
void null_block(void) MIX(symbolic) {
  x = NULL;
}
int main(void) {
  use_block();
  null_block();
  return 0;
}
)";
  MixyStats Stats;
  EXPECT_GE(mixyWarnings(Source, MixyOptions(), &Stats), 1u);
  EXPECT_GE(Stats.FixpointIterations, 1u);
}

TEST_F(MixyTest, FixpointChainWarnsOncePerSink) {
  // bench_fixpoint's E6 chain at N = 4: use-block i frees x_i through its
  // own typed sink, and every null arrives after the use blocks ran. Each
  // late null must reach its sink, and qualifier warnings are per sink.
  const unsigned N = 4;
  std::string Source;
  for (unsigned I = 0; I != N; ++I)
    Source += "void sysutil_free" + std::to_string(I) +
              "(void * nonnull p_ptr) MIX(typed);\n";
  for (unsigned I = 0; I != N; ++I)
    Source += "int *x" + std::to_string(I) + ";\n";
  for (unsigned I = 0; I != N; ++I) {
    std::string Idx = std::to_string(I);
    Source += "void use_block" + Idx + "(void) MIX(symbolic) {\n"
              "  sysutil_free" + Idx + "((void*)x" + Idx + ");\n}\n"
              "void null_block" + Idx + "(void) MIX(symbolic) {\n"
              "  x" + Idx + " = NULL;\n}\n";
  }
  Source += "int main(void) {\n";
  for (unsigned I = 0; I != N; ++I)
    Source += "  use_block" + std::to_string(I) + "();\n";
  for (unsigned I = 0; I != N; ++I)
    Source += "  null_block" + std::to_string(I) + "();\n";
  Source += "  return 0;\n}\n";

  EXPECT_EQ(mixyWarnings(Source), N) << LastDiags;
  for (unsigned I = 0; I != N; ++I)
    EXPECT_NE(LastDiags.find("sysutil_free" + std::to_string(I)),
              std::string::npos)
        << "no warning at sink " << I << ":\n" << LastDiags;
}

// The round loop itself (MixyAnalysis::run): Gauss-Seidel over the
// frontier-call sites, re-run until a round changes no calling context.
// "Rounds" count rounds that changed something; "reruns" count site
// evaluations beyond each site's first one in the loop.

/// Globals z -> y -> x copied block by block, declared and called in
/// dependency order, with the sink last.
static const char *OrderedChainSource = R"(
void sysutil_free(void * nonnull p_ptr) MIX(typed);
int *x;
int *y;
int *z;
void null_block(void) MIX(symbolic) {
  z = NULL;
}
void copy_yz(void) MIX(symbolic) {
  y = z;
}
void copy_xy(void) MIX(symbolic) {
  x = y;
}
void use_block(void) MIX(symbolic) {
  sysutil_free((void*)x);
}
int main(void) {
  null_block();
  copy_yz();
  copy_xy();
  use_block();
  return 0;
}
)";

/// x_from_y and y_from_x feed each other; the null that starts the cycle
/// arrives last, and the sink reads x first.
static const char *CycleSource = R"(
void sysutil_free(void * nonnull p_ptr) MIX(typed);
int *x;
int *y;
void use_block(void) MIX(symbolic) {
  sysutil_free((void*)x);
}
void x_from_y(void) MIX(symbolic) {
  if (y == NULL)
    x = NULL;
}
void y_from_x(void) MIX(symbolic) {
  if (x == NULL)
    y = NULL;
}
void null_y(void) MIX(symbolic) {
  y = NULL;
}
int main(void) {
  use_block();
  x_from_y();
  y_from_x();
  null_y();
  return 0;
}
)";

TEST_F(MixyTest, FixpointOrderedChainSettlesInOneRound) {
  // Each site's refresh sees every earlier site's effects, so a chain in
  // dependency order settles in one round of changes (plus the
  // confirming round, which is not counted) and re-runs nothing.
  mix::obs::MetricsRegistry Metrics;
  MixyOptions Opts;
  Opts.Metrics = &Metrics;
  MixyStats Stats;
  EXPECT_EQ(mixyWarnings(OrderedChainSource, Opts, &Stats), 1u) << LastDiags;
  EXPECT_EQ(Metrics.counterValue("engine.worklist.reruns"), 0u);
  EXPECT_EQ(Metrics.counterValue("engine.fixpoint.rounds"), 1u);
  EXPECT_EQ(Metrics.counterValue("mixy.fixpoint_rounds"), 1u);
  EXPECT_EQ(Stats.FixpointIterations, 1u);
}

TEST_F(MixyTest, FixpointRerunsSitesOnACycle) {
  // The cycle needs a second round: use_block and x_from_y run before the
  // null reaches x, and their sites must be evaluated again.
  mix::obs::MetricsRegistry Metrics;
  MixyOptions Opts;
  Opts.Metrics = &Metrics;
  MixyStats Stats;
  EXPECT_EQ(mixyWarnings(CycleSource, Opts, &Stats), 1u) << LastDiags;
  EXPECT_NE(LastDiags.find("sysutil_free"), std::string::npos) << LastDiags;
  EXPECT_GT(Metrics.counterValue("engine.worklist.reruns"), 0u);
  EXPECT_EQ(Metrics.counterValue("engine.fixpoint.rounds"), 2u);
  EXPECT_EQ(Stats.FixpointIterations, 2u);
}

TEST_F(MixyTest, FixpointStopsAtTheRoundBound) {
  // With room for one round, the loop stops before the null reaches the
  // sink: the cycle's second round never runs.
  mix::obs::MetricsRegistry Metrics;
  MixyOptions Opts;
  Opts.Metrics = &Metrics;
  Opts.MaxFixpointIterations = 1;
  MixyStats Stats;
  EXPECT_EQ(mixyWarnings(CycleSource, Opts, &Stats), 0u) << LastDiags;
  EXPECT_EQ(Metrics.counterValue("engine.fixpoint.rounds"), 1u);
  EXPECT_EQ(Metrics.counterValue("engine.worklist.reruns"), 0u);
  EXPECT_EQ(Stats.FixpointIterations, 1u);
}

TEST_F(MixyTest, FixpointPicksUpSitesFoundDuringARound) {
  // late_block is first met in round 0, when use_block re-runs with x
  // null and calls the typed reach. Its site is appended mid-round with
  // y still nonnull; null_y then nulls y, so the next round must refresh
  // and re-run the new site to find the error at the sink. (reach is
  // analyzed once, so nothing else re-creates the site.)
  const char *Source = R"(
void sysutil_free(void * nonnull p_ptr) MIX(typed);
int *x;
int *y;
void late_block(void) MIX(symbolic) {
  sysutil_free((void*)y);
}
void reach(void) MIX(typed) {
  late_block();
}
void use_block(void) MIX(symbolic) {
  if (x == NULL)
    reach();
}
void null_x(void) MIX(symbolic) {
  x = NULL;
}
void null_y(void) MIX(symbolic) {
  if (x == NULL)
    y = NULL;
}
int main(void) {
  use_block();
  null_y();
  null_x();
  return 0;
}
)";
  mix::obs::MetricsRegistry Metrics;
  MixyOptions Opts;
  Opts.Metrics = &Metrics;
  // late_block holds the program's only sink.
  EXPECT_EQ(mixyWarnings(Source, Opts), 1u) << LastDiags;
  EXPECT_EQ(Metrics.counterValue("engine.fixpoint.rounds"), 2u);
}

TEST_F(MixyTest, TrueErrorsAreStillReported) {
  // Soundness direction: MIXY removes false positives, not true ones.
  const char *Source = R"(
void sysutil_free(void * nonnull p_ptr) MIX(typed);
void helper(int *p) MIX(symbolic) {
  sysutil_free((void*)p);
}
int main(void) {
  helper(NULL);
  return 0;
}
)";
  EXPECT_GE(mixyWarnings(Source), 1u);
}

TEST_F(MixyTest, SymbolicStartMode) {
  CAstContext Ctx;
  DiagnosticEngine Diags;
  const CProgram *P = parseC(corpus::vsftpdCase(1, true), Ctx, Diags);
  ASSERT_NE(P, nullptr) << Diags.str();
  MixyAnalysis Mixy(*P, Ctx, Diags);
  // Start symbolically at sockaddr_clear itself.
  unsigned W = Mixy.run(MixyAnalysis::StartMode::Symbolic, "sockaddr_clear");
  EXPECT_EQ(W, 0u) << Diags.str();
}

// === additional end-to-end coverage ==========================================

TEST_F(MixyTest, WarnAllDereferencesMode) {
  // The "annotate all dereferences" mode the paper mentions as the
  // heavyweight alternative to the single sysutil_free annotation.
  const char *Source = R"(
int deref(int *p) { return *p; }
int main(void) {
  int *x = NULL;
  return deref(x);
}
)";
  MixyOptions Opts;
  Opts.Qual.WarnAllDereferences = true;
  EXPECT_GE(mixyWarnings(Source, Opts), 1u);
  // Default mode: no nonnull annotations anywhere, so no warnings.
  EXPECT_EQ(mixyWarnings(Source), 0u);
}

TEST_F(MixyTest, ScaledCorpusParsesAndAnalyzes) {
  // The E5 workload end to end: parse + full MIXY run on the corpus with
  // filler modules and annotated symbolic blocks.
  std::string Source = corpus::vsftpdScaled(true, 6, 3);
  CAstContext Ctx;
  DiagnosticEngine Diags;
  const CProgram *P = parseC(Source, Ctx, Diags);
  ASSERT_NE(P, nullptr) << Diags.str();
  MixyOptions NoAlias;
  NoAlias.RestoreAliasing = false;
  MixyAnalysis Analysis(*P, Ctx, Diags, NoAlias);
  EXPECT_EQ(Analysis.run(MixyAnalysis::StartMode::Typed, "filler_main"),
            0u)
      << Diags.str();
  EXPECT_GE(Analysis.stats().SymbolicCallsFromTyped, 3u);
}

TEST_F(MixyTest, SymbolicStartOnCase3Block) {
  // Begin execution inside main_BLOCK itself: the whole case-3 machinery
  // (inlined dns_resolve, the gethostbyname model, the typed frontier at
  // sysutil_free) runs from symbolic mode.
  CAstContext Ctx;
  DiagnosticEngine Diags;
  const CProgram *P = parseC(corpus::vsftpdCase(3, true), Ctx, Diags);
  ASSERT_NE(P, nullptr) << Diags.str();
  MixyAnalysis Mixy(*P, Ctx, Diags);
  EXPECT_EQ(Mixy.run(MixyAnalysis::StartMode::Symbolic, "main_BLOCK"), 0u)
      << Diags.str();
  // Note: sysutil_free (the only MIX(typed) frontier) is never reached on
  // a feasible path here — sockaddr_clear's then-branch is infeasible
  // because *p_sock is definitely NULL at that point. That the executor
  // proves this is the point of the case study.
  EXPECT_GE(Mixy.stats().SymbolicBlockRuns, 1u);
}

TEST_F(MixyTest, MissingEntryIsAnError) {
  CAstContext Ctx;
  DiagnosticEngine Diags;
  const CProgram *P = parseC("int f(void) { return 0; }", Ctx, Diags);
  ASSERT_NE(P, nullptr);
  MixyAnalysis Mixy(*P, Ctx, Diags);
  Mixy.run(MixyAnalysis::StartMode::Typed, "main");
  EXPECT_TRUE(Diags.hasErrors());
}

TEST_F(MixyTest, IncompatibleContextsAreAnalyzedSeparately) {
  // Two call sites with *different* nullness contexts must not share a
  // cache entry: the maybe-null caller warns, the nonnull caller's path
  // stays clean, and both behaviours coexist.
  const char *Source = R"(
void sysutil_free(void * nonnull p_ptr) MIX(typed);
int g;
void helper(int *p) MIX(symbolic) {
  sysutil_free((void*)p);
}
int *maybe(void) { return NULL; }
void caller_ok(void) { helper(&g); }
void caller_bad(void) { helper(maybe()); }
int main(void) { caller_ok(); caller_bad(); return 0; }
)";
  MixyStats Stats;
  EXPECT_GE(mixyWarnings(Source, MixyOptions(), &Stats), 1u);
  // Two distinct contexts: two symbolic runs, no (cross-context) hit.
  EXPECT_GE(Stats.SymbolicBlockRuns, 2u);
}

TEST_F(MixyTest, RepeatedInProcessRunsAreIdentical) {
  // Typed regions are analyzed in declaration order, so frontier calls
  // (and the fixpoint sites they create) come in the same order on every
  // run: where the functions happen to be allocated must not change the
  // block runs or the diagnostics.
  const std::string Source =
      corpus::vsftpdScaled(/*Annotated=*/true, /*Modules=*/24,
                           /*SymbolicBlocks=*/8);
  std::vector<unsigned> Runs;
  std::vector<std::string> Rendered;
  for (int I = 0; I != 5; ++I) {
    CAstContext Ctx;
    DiagnosticEngine Diags;
    const CProgram *P = parseC(Source, Ctx, Diags);
    ASSERT_NE(P, nullptr) << Diags.str();
    MixyAnalysis Mixy(*P, Ctx, Diags);
    Mixy.run(MixyAnalysis::StartMode::Typed, "filler_main");
    Runs.push_back(Mixy.stats().SymbolicBlockRuns);
    Rendered.push_back(Diags.str());
  }
  for (int I = 1; I != 5; ++I) {
    EXPECT_EQ(Runs[I], Runs[0]) << "run " << I;
    EXPECT_EQ(Rendered[I], Rendered[0]) << "run " << I;
  }
}
