//===--- SolverPool.h - Per-worker SMT solver instances ---------*- C++ -*-===//
//
// Part of the Mix reproduction of "Mixing Type Checking and Symbolic
// Execution" (PLDI 2010).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Solver backends are cheap to construct but hold mutable state during a
/// query, and every solver writes lowered terms into its TermArena — so
/// neither can be shared between concurrent analysis workers. SolverPool
/// hands out (TermArena, ISolver) instances under an RAII lease:
/// parallel block analyses acquire one per task or pin one per worker for
/// the lifetime of a parallel analysis run.
///
/// The pool builds whatever backend the SolverSpec selects, so `--solver`
/// applies uniformly to the parallel engines.
///
/// Instances are reused across leases (arena allocations amortize), and
/// statistics survive reuse so a pool-wide query count can be reported.
///
//===----------------------------------------------------------------------===//

#ifndef MIX_SOLVER_SOLVERPOOL_H
#define MIX_SOLVER_SOLVERPOOL_H

#include "solver/SolverFactory.h"

#include <memory>
#include <mutex>
#include <vector>

namespace mix::smt {

/// A pool of independent solver instances for concurrent workers.
class SolverPool {
public:
  /// One pooled instance: a private term arena and a solver over it.
  struct Instance {
    TermArena Terms;
    std::unique_ptr<ISolver> Solver;
    Instance(const SolverSpec &Spec, const SmtOptions &Opts)
        : Solver(createSolver(Spec, Terms, Opts)) {}
  };

  /// RAII lease of one instance; returns it to the pool on destruction.
  class Lease {
  public:
    Lease() = default;
    Lease(Lease &&O) noexcept : Pool(O.Pool), Inst(O.Inst) {
      O.Pool = nullptr;
      O.Inst = nullptr;
    }
    Lease &operator=(Lease &&O) noexcept {
      release();
      Pool = O.Pool;
      Inst = O.Inst;
      O.Pool = nullptr;
      O.Inst = nullptr;
      return *this;
    }
    Lease(const Lease &) = delete;
    Lease &operator=(const Lease &) = delete;
    ~Lease() { release(); }

    TermArena &terms() { return Inst->Terms; }
    ISolver &solver() { return *Inst->Solver; }
    explicit operator bool() const { return Inst != nullptr; }

    void release();

  private:
    friend class SolverPool;
    Lease(SolverPool *Pool, Instance *Inst) : Pool(Pool), Inst(Inst) {}
    SolverPool *Pool = nullptr;
    Instance *Inst = nullptr;
  };

  /// \p MaxIdle caps how many returned instances are kept for reuse;
  /// acquire() beyond the cap still succeeds with a fresh instance. The
  /// default spec builds the default backend (smtlite).
  explicit SolverPool(SmtOptions Opts = SmtOptions(),
                      SolverSpec Spec = SolverSpec(), size_t MaxIdle = 64)
      : Opts(Opts), Spec(Spec), MaxIdle(MaxIdle) {}

  /// Takes an idle instance or constructs a new one. Thread-safe.
  Lease acquire();

  /// Total queries across every instance this pool ever created,
  /// including ones currently leased out.
  uint64_t totalQueries() const;

  /// Number of instances created over the pool's lifetime.
  size_t instancesCreated() const;

  const SolverSpec &spec() const { return Spec; }

private:
  friend class Lease;
  void releaseInstance(Instance *Inst);

  SmtOptions Opts;
  SolverSpec Spec;
  size_t MaxIdle;

  mutable std::mutex M;
  std::vector<std::unique_ptr<Instance>> All;  ///< owns every instance
  std::vector<Instance *> Idle;                ///< subset available to lease
};

} // namespace mix::smt

#endif // MIX_SOLVER_SOLVERPOOL_H
