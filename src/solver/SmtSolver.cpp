//===--- SmtSolver.cpp - DPLL(T) SMT backend ("smtlite") ------------------===//
//
// Part of the Mix reproduction of "Mixing Type Checking and Symbolic
// Execution" (PLDI 2010).
//
//===----------------------------------------------------------------------===//

#include "solver/SmtSolver.h"

#include "solver/AssertionStack.h"
#include "solver/SmtInternals.h"

#include <cassert>
#include <memory>

using namespace mix::smt;
using namespace mix::smt::detail;

namespace {

/// The lazy DPLL(T) loop shared by the one-shot path and the native
/// incremental stack: alternate CDCL SAT search (under \p Assumptions)
/// with theory checks of the integer atoms each propositional model
/// assigns, blocking theory-conflicting polarity combinations. Blocking
/// clauses are theory-valid regardless of which assertion frames are
/// live, so the incremental stack adds them unguarded and they survive
/// pops.
SolveResult runTheoryLoop(SatSolver &Sat, TseitinEncoder &Encoder,
                          const std::vector<Lit> &Assumptions,
                          const SmtOptions &Opts, SmtSolver::Stats &Stats,
                          SmtModel *ModelOut) {
  for (unsigned Iter = 0; Iter != Opts.MaxTheoryIterations; ++Iter) {
    ++Stats.SatCalls;
    SatResult SR = Sat.solve(Assumptions);
    if (SR == SatResult::Unsat)
      return SolveResult::Unsat;
    if (SR == SatResult::Interrupted)
      return SolveResult::Unknown;

    auto FillBools = [&] {
      if (!ModelOut)
        return;
      ModelOut->Bools.clear();
      for (const auto &[VarId, L] : Encoder.boolVarLits())
        ModelOut->Bools[VarId] = Sat.modelValue(L.var()) != L.negated();
    };

    const auto &Atoms = Encoder.theoryAtoms();
    if (Atoms.empty()) {
      if (ModelOut) {
        ModelOut->Ints.clear();
        ModelOut->Complete = true;
        FillBools();
      }
      return SolveResult::Sat;
    }

    // Build the conjunction of integer atoms as assigned by the model.
    std::vector<LinConstraint> Constraints;
    std::vector<Lit> ModelLits;
    Constraints.reserve(Atoms.size());
    ModelLits.reserve(Atoms.size());
    for (const auto &A : Atoms) {
      bool Positive = Sat.modelValue(A.SatVar);
      Constraints.push_back(atomToConstraint(A.Atom, Positive));
      ModelLits.push_back(Lit(A.SatVar, /*Negated=*/!Positive));
    }

    ++Stats.TheoryChecks;
    LiaResult R = checkLinearConjunction(Constraints, Opts.Lia);
    if (R.Verdict == LiaVerdict::Sat) {
      if (ModelOut) {
        ModelOut->Ints = R.Model;
        ModelOut->Complete = R.HasModel;
        FillBools();
      }
      return SolveResult::Sat;
    }
    if (R.Verdict == LiaVerdict::Unknown)
      return SolveResult::Unknown;

    // Theory conflict: block this combination of atom polarities.
    std::vector<Lit> Blocking;
    if (R.Core.empty()) {
      for (Lit L : ModelLits)
        Blocking.push_back(~L);
    } else {
      for (unsigned Idx : R.Core) {
        assert(Idx < ModelLits.size() && "core index out of range");
        Blocking.push_back(~ModelLits[Idx]);
      }
    }
    if (Blocking.empty())
      return SolveResult::Unsat;
    Sat.addClause(std::move(Blocking));
    ++Stats.BlockedModels;
  }
  return SolveResult::Unknown;
}

} // namespace

SmtSolver::SmtSolver(TermArena &Arena, SmtOptions Opts)
    : SolverBase(Arena, Opts) {
  if (Opts.Metrics) {
    CDecisions = Opts.Metrics->counter("solver.sat.decisions");
    CPropagations = Opts.Metrics->counter("solver.sat.propagations");
    CConflicts = Opts.Metrics->counter("solver.sat.conflicts");
    CRecycles = Opts.Metrics->counter("solver.inc.recycles");
  }
}

void SmtSolver::noteSatWork(const SatSolver::Stats &Before,
                            const SatSolver::Stats &After) {
  uint64_t Decisions = After.Decisions - Before.Decisions;
  uint64_t Propagations = After.Propagations - Before.Propagations;
  uint64_t Conflicts = After.Conflicts - Before.Conflicts;
  Statistics.Decisions += Decisions;
  Statistics.Propagations += Propagations;
  Statistics.Conflicts += Conflicts;
  CDecisions.add(Decisions);
  CPropagations.add(Propagations);
  CConflicts.add(Conflicts);
}

SolveResult SmtSolver::decide(const Term *Formula, SmtModel *ModelOut) {
  ++Statistics.Queries;
  assert(Formula->isBool() && "checkSat() requires a boolean formula");

  // Lower if-then-else integer terms and conjoin their definitions.
  IteLowering Lowering(Arena);
  const Term *F = Lowering.lower(Formula);
  for (const Term *Def : Lowering.definitions())
    F = Arena.andTerm(F, Def);

  if (F->kind() == TermKind::BoolConst) {
    if (ModelOut)
      *ModelOut = SmtModel();
    return F->value() ? SolveResult::Sat : SolveResult::Unsat;
  }

  SatSolver Sat;
  Sat.setInterrupt(Opts.Cancel);
  TseitinEncoder Encoder(Sat);
  Lit Root = Encoder.encode(F);
  Sat.addClause({Root});

  SolveResult R = runTheoryLoop(Sat, Encoder, /*Assumptions=*/{}, Opts,
                                Statistics, ModelOut);
  noteSatWork(SatSolver::Stats(), Sat.stats());
  return R;
}

namespace mix::smt {

/// The native incremental stack over the smtlite engine. Every frame f
/// gets an activation literal a_f; a frame's assertions are added as
/// clauses (~a_f \/ encoded) and a check solves under the assumptions
/// {a_f | f live}. pop() adds the unit clause ~a_f, which permanently
/// satisfies (neutralizes) the frame's guarded clauses *and* every
/// learned clause whose derivation used them (such clauses contain ~a_f).
/// Ite-lowering definitions are unguarded: they define fresh variables
/// and are valid independent of which frames are live. Re-pushed frames
/// get fresh activation literals, so retirement is permanent per literal.
///
/// Retired frames still cost: every solve re-propagates each ~a_f unit
/// and every theory check runs over every atom ever encoded (dead atoms
/// included, whose arbitrary polarities can also exhaust the LIA
/// disequality-split cap and turn a verdict into Unknown). So all SAT
/// state lives in an Epoch, and a pop() that leaves no live frame
/// discards it for a fresh one into which the base-level assertions, if
/// any, are replayed. PathSolver pops to the common prefix, so each new
/// function or block exploration starts small instead of inheriting the
/// whole session. The base class's caches are keyed by terms, not SAT
/// variables, and survive the switch.
class SmtLiteStack : public AssertionStack {
public:
  explicit SmtLiteStack(SmtSolver &Owner)
      : AssertionStack(Owner), Owner(Owner) {
    startEpoch();
  }

protected:
  void onPush() override { E->ActLits.push_back(E->freshActivation()); }

  void onPop() override {
    if (depth() == 0) {
      // Only the permanent base level is live: replay it into a fresh
      // epoch and drop everything the popped frames left behind.
      startEpoch();
      ++Owner.Statistics.Recycles;
      Owner.CRecycles.inc();
      for (const Term *T : assertions())
        onAssert(T);
      return;
    }
    E->Sat.addClause({~E->ActLits.back()});
    E->ActLits.pop_back();
  }

  void onAssert(const Term *T) override {
    const Term *F = E->Lowering.lower(T);
    // Encode definitions introduced since the last assert, unguarded.
    const auto &Defs = E->Lowering.definitions();
    for (; E->DefsEncoded != Defs.size(); ++E->DefsEncoded)
      E->Sat.addClause({E->Encoder.encode(Defs[E->DefsEncoded])});
    E->Sat.addClause({~E->ActLits.back(), E->Encoder.encode(F)});
  }

  SolveResult solveCurrent(SmtModel *ModelOut) override {
    ++Owner.Statistics.Queries;
    SatSolver::Stats Before = E->Sat.stats();
    SolveResult R = Owner.bookDecision([&] {
      return runTheoryLoop(E->Sat, E->Encoder, E->ActLits, Owner.options(),
                           Owner.Statistics, ModelOut);
    });
    Owner.noteSatWork(Before, E->Sat.stats());
    return R;
  }

private:
  /// Everything numbered by SAT variables: discarded as a whole.
  struct Epoch {
    explicit Epoch(TermArena &Arena) : Lowering(Arena), Encoder(Sat) {}

    Lit freshActivation() { return Lit(Sat.newVar(), /*Negated=*/false); }

    SatSolver Sat;
    detail::IteLowering Lowering;
    detail::TseitinEncoder Encoder;
    std::vector<Lit> ActLits; ///< base + one per open frame
    size_t DefsEncoded = 0;   ///< watermark into Lowering.definitions()
  };

  void startEpoch() {
    E = std::make_unique<Epoch>(Owner.arena());
    E->Sat.setInterrupt(Owner.options().Cancel);
    // Base-level activation literal: never retired (base assertions are
    // permanent), but keeps every clause uniformly guarded.
    E->ActLits.push_back(E->freshActivation());
  }

  SmtSolver &Owner;
  std::unique_ptr<Epoch> E;
};

} // namespace mix::smt

std::unique_ptr<AssertionStack> SmtSolver::openStack() {
  return std::make_unique<SmtLiteStack>(*this);
}
