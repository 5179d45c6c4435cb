//===--- AssertionStack.h - Incremental assertion stacks --------*- C++ -*-===//
//
// Part of the Mix reproduction of "Mixing Type Checking and Symbolic
// Execution" (PLDI 2010).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Incremental solving semantics for every backend: an SMT-LIB-style
/// push/pop/assert/check-sat stack opened over an ISolver, plus the entry
/// point path exploration uses, checkPath(), which syncs the stack to a
/// PathCondition chain by itself.
///
/// Executors fork states freely, so they cannot each own a physical
/// stack. Every state instead carries a PathCondition (an immutable,
/// cheaply-copyable chain of branch deltas), and the executor owns ONE
/// stack. checkPath() pops to the longest common prefix of the stack's
/// own folds and the chain's folds, then pushes the chain's remaining
/// deltas, one frame each. Sibling paths share their prefix, so the common
/// case at a fork is one pop and one push.
///
/// The base class is both the generic emulation (usable over any
/// backend) and the caching layer that produces most of the query
/// savings, independent of the backend's own incrementality:
///
/// - **Verdict cache**: the asserted conjunction is folded in the
///   backend's hash-consed arena, so formula identity is pointer
///   identity; re-checking an unchanged stack is free.
/// - **Model reuse**: a satisfying model cached for a prefix is
///   evaluated against the new deltas (TermEval); if they all hold, the
///   extension is Sat without a query (the KLEE counterexample-cache
///   trick).
///
/// Answers produced by these shortcuts never touch the backend and
/// therefore never count as solver queries. Backends with native
/// incremental state override solveCurrent()/onAssert()/onPush()/onPop()
/// (see smtlite's per-frame clause tagging in SmtSolver.cpp).
///
/// With a metrics registry in the backend's options, the stack books
/// "solver.inc.push"/"solver.inc.pop" (checkPath() syncs),
/// "solver.inc.cached" and "solver.inc.model_reuse" (shortcut answers)
/// and "solver.inc.queries" (backend decisions).
///
//===----------------------------------------------------------------------===//

#ifndef MIX_SOLVER_ASSERTIONSTACK_H
#define MIX_SOLVER_ASSERTIONSTACK_H

#include "solver/ISolver.h"

#include <memory>
#include <vector>

namespace mix::smt {

/// An immutable path condition: a persistent cons-list of branch deltas.
/// Copying is one shared_ptr copy; extension allocates one node. The
/// empty condition denotes true.
class PathCondition {
public:
  PathCondition() = default;

  /// This condition with \p Delta conjoined. Returns *this unchanged when
  /// the conjunction simplifies to the current fold (e.g. a true or
  /// duplicate guard).
  PathCondition extend(TermArena &Arena, const Term *Delta) const {
    const Term *Prev = folded(Arena);
    const Term *Next = Arena.andTerm(Prev, Delta);
    if (Next == Prev)
      return *this;
    auto N = std::make_shared<Node>();
    N->Parent = Tail;
    N->Delta = Delta;
    N->Folded = Next;
    N->Len = length() + 1;
    PathCondition Out;
    Out.Tail = std::move(N);
    return Out;
  }

  /// The folded conjunction (true when empty): the path condition as one
  /// term. Hash-consing makes it pointer-equal to the same sequence of
  /// andTerm() calls applied to trueTerm.
  const Term *folded(TermArena &Arena) const {
    return Tail ? Tail->Folded : Arena.trueTerm();
  }

  size_t length() const { return Tail ? Tail->Len : 0; }

private:
  friend class AssertionStack;
  struct Node {
    std::shared_ptr<const Node> Parent;
    const Term *Delta = nullptr;
    const Term *Folded = nullptr;
    size_t Len = 0;
  };
  std::shared_ptr<const Node> Tail;
};

/// An incremental assertion stack over one backend. Not thread-safe; one
/// stack per exploration worker.
class AssertionStack {
public:
  explicit AssertionStack(ISolver &Backend);
  virtual ~AssertionStack();

  /// Opens a new frame. Assertions made after push() are retracted by the
  /// matching pop().
  void push();

  /// Closes the innermost frame, retracting its assertions. Requires
  /// depth() > 0.
  void pop();

  /// Asserts \p T (bool sort) in the innermost frame (or at the base
  /// level when no frame is open — base assertions cannot be retracted).
  void assertTerm(const Term *T);

  /// Is the conjunction of all live assertions satisfiable? When
  /// \p ModelOut is non-null and the answer is Sat, it receives a model.
  /// A model served from the reuse cache covers the variables the
  /// original solve constrained; variables introduced by later deltas
  /// satisfy them at the default values (0/false), per the SmtModel
  /// contract.
  SolveResult checkSat(SmtModel *ModelOut = nullptr);

  /// Satisfiability of \p PC, with \p Extra conjoined when non-null (a
  /// probe like a may-be-null guard that does not extend the path). Syncs
  /// the stack to \p PC first; \p Extra goes into a temporary frame, so
  /// the synced prefix and its cached models are reused across probes.
  /// Requires every live assertion to sit in its own frame, which is the
  /// shape checkPath() itself leaves behind.
  SolveResult checkPath(const PathCondition &PC, const Term *Extra = nullptr);

  /// Number of open frames.
  unsigned depth() const { return (unsigned)Frames.size(); }

  /// Number of live assertions (across all frames and the base level).
  size_t numAssertions() const { return Assertions.size(); }

  /// The folded conjunction of all live assertions (true when empty),
  /// built in the backend's arena. Because terms are hash-consed and the
  /// fold is maintained left-associatively, this is pointer-equal to a
  /// PathCondition fold built by the same sequence of deltas.
  const Term *conjunction() const;

  ISolver &backend() { return Backend; }

  /// Cumulative shortcut/query statistics for this stack.
  struct Stats {
    uint64_t Queries = 0;        ///< checkSat calls that hit the backend
    uint64_t CachedVerdicts = 0; ///< answered by the verdict cache
    uint64_t ModelReuses = 0;    ///< answered by re-evaluating a model
  };
  const Stats &stats() const { return Statistics; }

protected:
  /// Decides the current conjunction with a real backend query. The
  /// default re-solves conjunction() via Backend.checkSat; native stacks
  /// override. \p ModelOut is always non-null (the caller captures models
  /// for reuse) and must be filled on Sat.
  virtual SolveResult solveCurrent(SmtModel *ModelOut);

  /// Hooks for native stacks, called after the base bookkeeping.
  virtual void onAssert(const Term *T) { (void)T; }
  virtual void onPush() {}
  virtual void onPop() {}

  const std::vector<const Term *> &assertions() const { return Assertions; }

private:
  ISolver &Backend;

  std::vector<size_t> Frames; ///< start index of each open frame
  std::vector<const Term *> Assertions;
  /// Folded[i] = conjunction of Assertions[0..i]; truncated with pops.
  /// checkPath() diffs a chain against it: fold-pointer identity is the
  /// prefix key.
  std::vector<const Term *> Folded;

  // Shortcut caches. Folded terms are hash-consed, so two assertion
  // prefixes with pointer-equal folds denote the same formula — which
  // keeps every cache sound across pop/re-assert sequences.
  struct VerdictCache {
    const Term *Fold = nullptr;
    SolveResult R = SolveResult::Unknown;
  } LastVerdict;
  struct ModelCache {
    size_t Len = 0;
    const Term *Fold = nullptr; ///< fold of the prefix the model satisfies
    std::shared_ptr<SmtModel> Model;
  };
  /// Recently captured models, most recent first — a bounded
  /// counterexample cache. Each entry is anchored at the longest prefix
  /// it is known to satisfy (pops re-anchor it downward: a model of a
  /// conjunction satisfies every prefix of it), and checkSat consults
  /// all of them before solving. Keeping several matters for sibling
  /// probes: then/else probes alternate, so the single most recent model
  /// is usually the complement of the delta being probed.
  std::vector<ModelCache> Models;
  static constexpr size_t MaxCachedModels = 64;

  Stats Statistics;
  obs::Counter CPush, CPop, CCached, CModelReuse, CQueries;
};

} // namespace mix::smt

#endif // MIX_SOLVER_ASSERTIONSTACK_H
