//===--- SolverStackTest.cpp - AssertionStack push/pop coverage -----------===//
//
// Part of the Mix reproduction of "Mixing Type Checking and Symbolic
// Execution" (PLDI 2010).
//
// The incremental assertion stack is the load-bearing abstraction behind
// path exploration (checkPath() syncs it to a path's chain of branch
// deltas instead of re-solving whole path conditions), so it gets direct
// coverage here: frame semantics (nested push/pop, pop-to-empty,
// re-assert after pop), the chain sync, verdict correctness against
// from-scratch solving, and the query-saving shortcut caches. Every test
// runs against every registered backend —
// smtlite exercises the native activation-literal stack, dnf the generic
// emulation — so the two implementations cannot drift apart.
//
//===----------------------------------------------------------------------===//

#include "solver/AssertionStack.h"
#include "solver/SmtSolver.h"
#include "solver/SolverFactory.h"
#include "solver/TermEval.h"

#include <gtest/gtest.h>

#include <atomic>
#include <random>

using namespace mix::smt;

namespace {

/// Runs \p Body once per registered backend, with a fresh arena, solver,
/// and stack each time. SCOPED_TRACE names the backend on failure.
template <typename Fn> void forEachBackend(Fn Body) {
  for (const std::string &Name : registeredBackends()) {
    SCOPED_TRACE("backend: " + Name);
    TermArena A;
    std::unique_ptr<ISolver> S = createSolver({Name}, A, SmtOptions());
    ASSERT_NE(S, nullptr);
    std::unique_ptr<AssertionStack> Stack = S->openStack();
    ASSERT_NE(Stack, nullptr);
    Body(A, *S, *Stack);
  }
}

} // namespace

TEST(SolverStackTest, EmptyStackIsSat) {
  forEachBackend([](TermArena &A, ISolver &, AssertionStack &St) {
    EXPECT_EQ(St.depth(), 0u);
    EXPECT_EQ(St.numAssertions(), 0u);
    EXPECT_EQ(St.conjunction(), A.trueTerm());
    EXPECT_EQ(St.checkSat(), SolveResult::Sat);
  });
}

TEST(SolverStackTest, NestedFramesRetractInnermost) {
  forEachBackend([](TermArena &A, ISolver &, AssertionStack &St) {
    const Term *X = A.freshIntVar("x");
    St.push();
    St.assertTerm(A.lt(A.intConst(0), X)); // x > 0
    EXPECT_EQ(St.checkSat(), SolveResult::Sat);

    St.push();
    St.assertTerm(A.lt(X, A.intConst(0))); // x < 0: contradiction
    EXPECT_EQ(St.checkSat(), SolveResult::Unsat);

    St.pop(); // retract x < 0
    EXPECT_EQ(St.depth(), 1u);
    SmtModel M;
    ASSERT_EQ(St.checkSat(&M), SolveResult::Sat);
    if (M.Complete) {
      EXPECT_TRUE(evalBool(A.lt(A.intConst(0), X), M));
    }
  });
}

TEST(SolverStackTest, PopToEmptyRestoresTrue) {
  forEachBackend([](TermArena &A, ISolver &, AssertionStack &St) {
    St.push();
    St.assertTerm(A.falseTerm());
    EXPECT_EQ(St.checkSat(), SolveResult::Unsat);
    St.pop();
    EXPECT_EQ(St.depth(), 0u);
    EXPECT_EQ(St.conjunction(), A.trueTerm());
    EXPECT_EQ(St.checkSat(), SolveResult::Sat);
  });
}

TEST(SolverStackTest, ReAssertAfterPopIsSound) {
  // A formula asserted, popped, and re-asserted must get the same
  // verdict both times — the verdict cache and the model pool key on the
  // hash-consed fold, so a stale entry would surface exactly here.
  forEachBackend([](TermArena &A, ISolver &, AssertionStack &St) {
    const Term *X = A.freshIntVar("x");
    const Term *Contradiction =
        A.andTerm(A.lt(X, A.intConst(0)), A.lt(A.intConst(0), X));
    for (int Round = 0; Round != 3; ++Round) {
      St.push();
      St.assertTerm(Contradiction);
      EXPECT_EQ(St.checkSat(), SolveResult::Unsat) << "round " << Round;
      St.pop();
      EXPECT_EQ(St.checkSat(), SolveResult::Sat) << "round " << Round;
    }
  });
}

TEST(SolverStackTest, BaseLevelAssertionsSurvivePops) {
  forEachBackend([](TermArena &A, ISolver &, AssertionStack &St) {
    const Term *X = A.freshIntVar("x");
    // Base-level (no open frame): not retractable.
    St.assertTerm(A.le(A.intConst(5), X)); // x >= 5
    St.push();
    St.assertTerm(A.lt(X, A.intConst(3))); // x < 3: contradiction
    EXPECT_EQ(St.checkSat(), SolveResult::Unsat);
    St.pop();
    EXPECT_EQ(St.numAssertions(), 1u);
    EXPECT_EQ(St.checkSat(), SolveResult::Sat);
    St.push();
    St.assertTerm(A.lt(X, A.intConst(10))); // x < 10: compatible
    EXPECT_EQ(St.checkSat(), SolveResult::Sat);
  });
}

TEST(SolverStackTest, InterleavedSatUnsatFlips) {
  // Alternate between compatible and contradicting deltas across frame
  // boundaries; no cached Unsat verdict may outlive the pop that
  // retracted its contradiction.
  forEachBackend([](TermArena &A, ISolver &, AssertionStack &St) {
    const Term *P = A.freshBoolVar("p");
    const Term *Q = A.freshBoolVar("q");
    St.push();
    St.assertTerm(P);
    EXPECT_EQ(St.checkSat(), SolveResult::Sat);
    St.push();
    St.assertTerm(A.notTerm(P));
    EXPECT_EQ(St.checkSat(), SolveResult::Unsat);
    St.push();
    St.assertTerm(Q); // extension of an unsat prefix stays unsat
    EXPECT_EQ(St.checkSat(), SolveResult::Unsat);
    St.pop();
    EXPECT_EQ(St.checkSat(), SolveResult::Unsat);
    St.pop(); // back to just p
    EXPECT_EQ(St.checkSat(), SolveResult::Sat);
    St.push();
    St.assertTerm(Q);
    EXPECT_EQ(St.checkSat(), SolveResult::Sat);
  });
}

TEST(SolverStackTest, ModelReuseAnswersCompatibleExtension) {
  forEachBackend([](TermArena &A, ISolver &, AssertionStack &St) {
    const Term *X = A.freshIntVar("x");
    St.push();
    St.assertTerm(A.le(A.intConst(0), X)); // x >= 0
    SmtModel M;
    ASSERT_EQ(St.checkSat(&M), SolveResult::Sat);
    if (!M.Complete)
      return; // no model to reuse; nothing to measure
    uint64_t QueriesBefore = St.stats().Queries;
    // A delta the cached model already satisfies (x >= 0 implies x > -1).
    St.push();
    St.assertTerm(A.lt(A.intConst(-1), X));
    EXPECT_EQ(St.checkSat(), SolveResult::Sat);
    EXPECT_EQ(St.stats().Queries, QueriesBefore)
        << "a delta the cached model satisfies must not reach the backend";
    EXPECT_GE(St.stats().ModelReuses, 1u);
  });
}

TEST(SolverStackTest, RepeatCheckSatIsCached) {
  forEachBackend([](TermArena &A, ISolver &, AssertionStack &St) {
    const Term *X = A.freshIntVar("x");
    St.push();
    St.assertTerm(A.lt(X, A.intConst(7)));
    EXPECT_EQ(St.checkSat(), SolveResult::Sat);
    uint64_t QueriesBefore = St.stats().Queries;
    for (int I = 0; I != 4; ++I)
      EXPECT_EQ(St.checkSat(), SolveResult::Sat);
    EXPECT_EQ(St.stats().Queries, QueriesBefore);
  });
}

namespace {

/// Small pool of variables random branch conditions draw from.
struct VarPool {
  std::vector<const Term *> Ints;
  std::vector<const Term *> Bools;
  explicit VarPool(TermArena &A) {
    for (int I = 0; I != 3; ++I)
      Ints.push_back(A.freshIntVar("x" + std::to_string(I)));
    for (int I = 0; I != 2; ++I)
      Bools.push_back(A.freshBoolVar("p" + std::to_string(I)));
  }
};

/// A random branch condition of the shapes path exploration produces:
/// comparisons over small linear terms, boolean literals, and their
/// negations.
const Term *randomBranch(TermArena &A, const VarPool &V, std::mt19937 &Rng) {
  auto IntOf = [&]() -> const Term * {
    switch (Rng() % 3) {
    case 0:
      return V.Ints[Rng() % V.Ints.size()];
    case 1:
      return A.intConst((long long)(Rng() % 9) - 4);
    default:
      return A.add(V.Ints[Rng() % V.Ints.size()],
                   A.intConst((long long)(Rng() % 5) - 2));
    }
  };
  const Term *C;
  switch (Rng() % 6) {
  case 0:
    C = A.lt(IntOf(), IntOf());
    break;
  case 1:
    C = A.le(IntOf(), IntOf());
    break;
  case 2:
    C = A.eqInt(IntOf(), IntOf());
    break;
  case 3:
    C = V.Bools[Rng() % V.Bools.size()];
    break;
  default:
    C = A.orTerm(V.Bools[Rng() % V.Bools.size()], A.lt(IntOf(), IntOf()));
    break;
  }
  return Rng() % 2 ? C : A.notTerm(C);
}

} // namespace

TEST(SolverStackTest, RandomBranchSequencesMatchFromScratch) {
  // 1000 random push/assert/pop/check sequences per backend: every
  // incremental verdict must equal a from-scratch solve of the same live
  // conjunction on an independent solver instance. The seed is fixed and
  // each sequence is derived from it, so a failure names everything
  // needed to replay it.
  const unsigned BaseSeed = 0x5eed5001;
  for (const std::string &Name : registeredBackends()) {
    SCOPED_TRACE("backend: " + Name);
    TermArena A;
    VarPool V(A);
    std::unique_ptr<ISolver> Inc = createSolver({Name}, A, SmtOptions());
    std::unique_ptr<ISolver> Scratch = createSolver({Name}, A, SmtOptions());
    ASSERT_TRUE(Inc && Scratch);
    for (unsigned Seq = 0; Seq != 1000; ++Seq) {
      std::mt19937 Rng(BaseSeed + Seq);
      std::unique_ptr<AssertionStack> St = Inc->openStack();
      // Independent mirror of the live assertions, one vector per frame
      // (index 0 is the base level) — deliberately not derived from the
      // stack's own bookkeeping, so a lost or leaked assertion shows up
      // as a verdict (or fold) mismatch.
      std::vector<std::vector<const Term *>> Frames(1);
      unsigned Ops = 4 + Rng() % 10;
      for (unsigned Op = 0; Op != Ops; ++Op) {
        const Term *Delta;
        switch (Rng() % 4) {
        case 0: // push a branch delta (the common exploration step)
          St->push();
          Frames.emplace_back();
          Delta = randomBranch(A, V, Rng);
          St->assertTerm(Delta);
          Frames.back().push_back(Delta);
          break;
        case 1: // pop, if a frame is open
          if (St->depth() > 0) {
            St->pop();
            Frames.pop_back();
          }
          break;
        case 2: // assert into the current frame
          Delta = randomBranch(A, V, Rng);
          St->assertTerm(Delta);
          Frames.back().push_back(Delta);
          break;
        default:
          break; // checkSat below
        }
        const Term *Whole = A.trueTerm();
        for (const auto &Frame : Frames)
          for (const Term *T : Frame)
            Whole = A.andTerm(Whole, T);
        ASSERT_EQ(St->conjunction(), Whole)
            << "seq " << Seq << " op " << Op
            << ": stack fold diverged from the asserted sequence";
        SolveResult Fast = St->checkSat();
        SolveResult Slow = Scratch->checkSat(Whole);
        ASSERT_EQ(Fast, Slow)
            << "seq " << Seq << " op " << Op << " (seed base 0x" << std::hex
            << BaseSeed << "): incremental " << solveResultName(Fast)
            << " vs from-scratch " << solveResultName(Slow);
      }
    }
  }
}

TEST(SolverStackTest, CheckPathMatchesFromScratch) {
  // 300 random walks per backend over PathCondition chains: each step
  // backtracks to a chain visited earlier in the walk, extends it by 0-3
  // random deltas, and sometimes adds an Extra probe. Every checkPath
  // verdict must equal a from-scratch checkSat(fold ∧ Extra) on an
  // independent solver instance, the stack must be left synced to the
  // chain, and switching to a sibling (the same parent chain, a different
  // last delta) must cost exactly one pop and one push.
  const unsigned BaseSeed = 0x5eed8001;
  for (const std::string &Name : registeredBackends()) {
    SCOPED_TRACE("backend: " + Name);
    TermArena A;
    VarPool V(A);
    mix::obs::MetricsRegistry Reg;
    SmtOptions Opts;
    Opts.Metrics = &Reg;
    std::unique_ptr<ISolver> Inc = createSolver({Name}, A, Opts);
    std::unique_ptr<ISolver> Scratch = createSolver({Name}, A, SmtOptions());
    ASSERT_TRUE(Inc && Scratch);
    std::unique_ptr<AssertionStack> St = Inc->openStack();
    auto Check = [&](const PathCondition &PC, const Term *Extra,
                     const std::string &Where) {
      const Term *Fold = PC.folded(A);
      SolveResult Fast = St->checkPath(PC, Extra);
      SolveResult Slow =
          Scratch->checkSat(Extra ? A.andTerm(Fold, Extra) : Fold);
      ASSERT_EQ(Fast, Slow) << Where << ": checkPath "
                            << solveResultName(Fast) << " vs from-scratch "
                            << solveResultName(Slow);
      ASSERT_EQ(St->conjunction(), Fold) << Where << ": stack not synced";
      ASSERT_EQ(St->depth(), PC.length()) << Where;
    };
    unsigned SiblingSwitches = 0;
    for (unsigned Seq = 0; Seq != 300; ++Seq) {
      std::mt19937 Rng(BaseSeed + Seq);
      std::vector<PathCondition> Visited{PathCondition()};
      unsigned Steps = 2 + Rng() % 10;
      for (unsigned Step = 0; Step != Steps; ++Step) {
        std::string Where =
            "seq " + std::to_string(Seq) + " step " + std::to_string(Step);
        PathCondition Parent = Visited[Rng() % Visited.size()];
        for (unsigned D = Rng() % 3; D != 0; --D)
          Parent = Parent.extend(A, randomBranch(A, V, Rng));
        PathCondition PC = Parent.extend(A, randomBranch(A, V, Rng));
        const Term *Extra = Rng() % 3 == 0 ? randomBranch(A, V, Rng) : nullptr;
        Check(PC, Extra, Where);
        if (HasFatalFailure())
          return;
        Visited.push_back(PC);

        PathCondition Sibling = Parent.extend(A, randomBranch(A, V, Rng));
        if (PC.length() != Parent.length() + 1 ||
            Sibling.length() != PC.length() ||
            Sibling.folded(A) == PC.folded(A))
          continue;
        uint64_t Pops = Reg.counterValue("solver.inc.pop");
        uint64_t Pushes = Reg.counterValue("solver.inc.push");
        Check(Sibling, Rng() % 3 == 0 ? randomBranch(A, V, Rng) : nullptr,
              Where + " sibling");
        if (HasFatalFailure())
          return;
        ASSERT_EQ(Reg.counterValue("solver.inc.pop"), Pops + 1) << Where;
        ASSERT_EQ(Reg.counterValue("solver.inc.push"), Pushes + 1) << Where;
        ++SiblingSwitches;
        Visited.push_back(Sibling);
      }
    }
    // Generator health: the sibling property was actually exercised.
    EXPECT_GT(SiblingSwitches, 300u);
    EXPECT_EQ(Reg.counterValue("solver.inc.queries"), St->stats().Queries);
  }
}

namespace {

/// randomBranch, plus (one time in four) a comparison over an if-then-else
/// integer term, so ite lowering is exercised across stack epochs.
const Term *randomDelta(TermArena &A, const VarPool &V, std::mt19937 &Rng) {
  if (Rng() % 4 != 0)
    return randomBranch(A, V, Rng);
  const Term *Ite =
      A.iteInt(V.Bools[Rng() % V.Bools.size()], V.Ints[Rng() % V.Ints.size()],
               A.intConst((long long)(Rng() % 5) - 2));
  return A.lt(Ite, A.intConst((long long)(Rng() % 5) - 2));
}

/// One push/assert/check cycle of 1-3 random frames on \p St, each
/// verdict checked against a fresh stack on \p Oracle that first replays
/// \p Base; leaves St at the depth it started at.
void checkedCycle(TermArena &A, const VarPool &V, std::mt19937 &Rng,
                  AssertionStack &St, ISolver &Oracle,
                  const std::vector<const Term *> &Base, unsigned Cycle) {
  std::unique_ptr<AssertionStack> Fresh = Oracle.openStack();
  for (const Term *T : Base)
    Fresh->assertTerm(T);
  unsigned NumFrames = 1 + Rng() % 3;
  for (unsigned F = 0; F != NumFrames; ++F) {
    const Term *Delta = randomDelta(A, V, Rng);
    St.push();
    St.assertTerm(Delta);
    Fresh->push();
    Fresh->assertTerm(Delta);
    SolveResult Got = St.checkSat();
    SolveResult Want = Fresh->checkSat();
    ASSERT_EQ(Got, Want) << "cycle " << Cycle << " frame " << F << ": "
                         << solveResultName(Got) << " vs fresh "
                         << solveResultName(Want);
  }
  for (unsigned F = 0; F != NumFrames; ++F)
    St.pop();
}

/// Options for the long-session stacks under test: a theory-iteration cap
/// far above what one cycle's few frames need, so a session that degrades
/// fails fast as an Unknown verdict instead of grinding through the
/// default 50000 rounds per query.
SmtOptions sessionOptions() {
  SmtOptions Opts;
  Opts.MaxTheoryIterations = 1000;
  return Opts;
}

} // namespace

TEST(SolverStackTest, SessionAgeDoesNotSlowQueries) {
  // One smtlite stack for 2000 cycles of push/assert/check/pop-to-empty,
  // the shape of a long exploration session. Verdicts must match a fresh
  // stack every cycle. Each cycle also ends with one probe query of
  // fixed shape (only its constant changes, so no cache answers it):
  // the probe must cost no more SAT propagations 1900 cycles in than it
  // did at the start — popped frames must not accumulate.
  const unsigned Cycles = 2000, Window = 100;
  TermArena A;
  VarPool V(A);
  SmtSolver Inc(A, sessionOptions()), Scratch(A);
  std::unique_ptr<AssertionStack> St = Inc.openStack();
  uint64_t FirstProps = 0, LastProps = 0;
  for (unsigned Cycle = 0; Cycle != Cycles; ++Cycle) {
    std::mt19937 Rng(0x5eed6001 + Cycle);
    checkedCycle(A, V, Rng, *St, Scratch, {}, Cycle);
    if (HasFatalFailure())
      return;
    ASSERT_EQ(St->depth(), 0u);

    const Term *K = A.intConst(Cycle);
    uint64_t Props = Inc.stats().Propagations, Queries = Inc.stats().Queries;
    St->push();
    St->assertTerm(A.andTerm(A.lt(V.Ints[0], K), A.lt(K, V.Ints[0])));
    ASSERT_EQ(St->checkSat(), SolveResult::Unsat) << "cycle " << Cycle;
    St->pop();
    ASSERT_EQ(Inc.stats().Queries, Queries + 1) << "cycle " << Cycle;
    Props = Inc.stats().Propagations - Props;
    if (Cycle < Window)
      FirstProps += Props;
    else if (Cycle >= Cycles - Window)
      LastProps += Props;
  }
  EXPECT_GT(FirstProps, 0u);
  EXPECT_LE(LastProps, FirstProps)
      << "mean propagations per probe grew from " << FirstProps / Window
      << " to " << LastProps / Window;
  // Every cycle popped to empty twice: once after the random frames, once
  // after the probe.
  EXPECT_EQ(Inc.stats().Recycles, 2u * Cycles);
}

TEST(SolverStackTest, BaseLevelAssertionsSurviveEpochs) {
  // Each return to the base level starts a fresh epoch, which must carry
  // the permanent base-level assertion over, cycle after cycle. Without
  // epochs this session degrades: the theory check sees every atom ever
  // encoded, and dead equalities defaulting to false pile up disequality
  // splits until verdicts turn Unknown.
  const unsigned Cycles = 500;
  TermArena A;
  VarPool V(A);
  SmtSolver Inc(A, sessionOptions()), Scratch(A);
  std::unique_ptr<AssertionStack> St = Inc.openStack();
  const Term *Base = A.le(A.intConst(1), V.Ints[0]); // x0 >= 1
  St->assertTerm(Base);
  for (unsigned Cycle = 0; Cycle != Cycles; ++Cycle) {
    std::mt19937 Rng(0x5eed7001 + Cycle);
    checkedCycle(A, V, Rng, *St, Scratch, {Base}, Cycle);
    if (HasFatalFailure())
      return;
    ASSERT_EQ(St->depth(), 0u);
    ASSERT_EQ(St->numAssertions(), 1u);
  }
  EXPECT_EQ(Inc.stats().Recycles, Cycles);
  St->push();
  St->assertTerm(A.lt(V.Ints[0], A.intConst(1))); // x0 < 1: contradiction
  EXPECT_EQ(St->checkSat(), SolveResult::Unsat);
  St->pop();
  EXPECT_EQ(St->checkSat(), SolveResult::Sat);
}

TEST(SolverStackTest, CancelYieldsUnknownNeverUnsat) {
  // A raised SmtOptions::Cancel stops work with a sound, incomplete
  // answer: Unknown on satisfiable and unsatisfiable formulas alike, from
  // scratch and through the incremental stack. Lowering the flag again
  // must leave no cached trace of the cancelled queries.
  for (const std::string &Name : registeredBackends()) {
    SCOPED_TRACE("backend: " + Name);
    std::atomic<bool> Cancel{true};
    SmtOptions Opts;
    Opts.Cancel = &Cancel;
    TermArena A;
    std::unique_ptr<ISolver> S = createSolver({Name}, A, Opts);
    ASSERT_NE(S, nullptr);
    const Term *X = A.freshIntVar("x");
    const Term *Positive = A.lt(A.intConst(0), X); // x > 0
    const Term *Contradiction = A.andTerm(Positive, A.lt(X, A.intConst(0)));

    EXPECT_EQ(S->checkSat(Positive), SolveResult::Unknown);
    EXPECT_EQ(S->checkSat(Contradiction), SolveResult::Unknown);

    std::unique_ptr<AssertionStack> St = S->openStack();
    St->push();
    St->assertTerm(Positive);
    EXPECT_EQ(St->checkSat(), SolveResult::Unknown);
    St->push();
    St->assertTerm(A.lt(X, A.intConst(0)));
    EXPECT_EQ(St->checkSat(), SolveResult::Unknown);

    Cancel = false;
    EXPECT_EQ(St->checkSat(), SolveResult::Unsat);
    St->pop();
    EXPECT_EQ(St->checkSat(), SolveResult::Sat);
    St->pop();
    EXPECT_EQ(S->checkSat(Positive), SolveResult::Sat);
    EXPECT_EQ(S->checkSat(Contradiction), SolveResult::Unsat);
  }
}
