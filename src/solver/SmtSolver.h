//===--- SmtSolver.h - DPLL(T) SMT backend ("smtlite") ----------*- C++ -*-===//
//
// Part of the Mix reproduction of "Mixing Type Checking and Symbolic
// Execution" (PLDI 2010).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The project's default solver backend — the stand-in for STP in the
/// paper's prototype, registered with SolverFactory as "smtlite".
/// Satisfiability of quantifier-free formulas over booleans and linear
/// integer arithmetic is decided with a lazy DPLL(T) loop: Tseitin
/// encoding to CNF, CDCL SAT search, and theory-checking of the integer
/// atoms in each propositional model, with unsat cores turned into
/// blocking clauses.
///
/// If-then-else integer terms (from the SEIf-Defer rule and the
/// null-pointer encoding of Section 4.1) are lowered to fresh variables
/// with guarded defining equations.
///
/// openStack() returns a *native* incremental stack: a SAT solver and
/// Tseitin encoder shared by every frame, per-frame activation literals
/// guarding each frame's clauses, solving under assumptions. pop()
/// retires the frame's activation literal with a unit clause, which
/// permanently neutralizes both the frame's clauses and any learned
/// clauses derived from them — the "learned-clause invalidation" that
/// makes retraction sound while keeping still-valid learned clauses and
/// theory blocking clauses (which are globally valid) across branches.
/// A pop() that leaves no frame open starts a fresh SAT epoch instead, so
/// retired frames never accumulate (DESIGN.md section 14).
///
/// The shared solver surface (SolveResult, SmtModel, SmtOptions,
/// QueryCache, the convenience verdict helpers) lives in ISolver.h.
///
//===----------------------------------------------------------------------===//

#ifndef MIX_SOLVER_SMTSOLVER_H
#define MIX_SOLVER_SMTSOLVER_H

#include "solver/ISolver.h"
#include "solver/Sat.h"

namespace mix::smt {

class SmtLiteStack;

/// One-shot and reusable SMT queries over a TermArena.
///
/// The solver object is stateless between queries apart from cumulative
/// statistics, so a single instance can serve an entire analysis run.
class SmtSolver : public SolverBase {
public:
  explicit SmtSolver(TermArena &Arena, SmtOptions Opts = SmtOptions());

  const char *name() const override { return "smtlite"; }

  /// Native incremental stack (activation-literal frame tagging over a
  /// SAT solver renewed per epoch); see the file comment.
  std::unique_ptr<AssertionStack> openStack() override;

  /// Cumulative statistics across queries (including stack solves). The
  /// SAT search counters are also exported as "solver.sat.decisions",
  /// "solver.sat.propagations" and "solver.sat.conflicts", and Recycles
  /// as "solver.inc.recycles", when a metrics registry is attached.
  struct Stats {
    uint64_t Queries = 0;
    uint64_t SatCalls = 0;
    uint64_t TheoryChecks = 0;
    uint64_t BlockedModels = 0;
    uint64_t Decisions = 0;    ///< SAT decisions
    uint64_t Propagations = 0; ///< SAT literal propagations
    uint64_t Conflicts = 0;    ///< SAT conflicts
    uint64_t Recycles = 0;     ///< fresh stack epochs (pops to base level)
  };
  const Stats &stats() const { return Statistics; }

protected:
  SolveResult decide(const Term *Formula, SmtModel *ModelOut) override;

private:
  friend class SmtLiteStack;

  /// Books the SAT search work one query did (\p After minus \p Before).
  void noteSatWork(const SatSolver::Stats &Before,
                   const SatSolver::Stats &After);

  Stats Statistics;
  obs::Counter CDecisions, CPropagations, CConflicts, CRecycles;
};

} // namespace mix::smt

#endif // MIX_SOLVER_SMTSOLVER_H
