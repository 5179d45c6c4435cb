//===--- SolverFactory.h - Solver backend selection -------------*- C++ -*-===//
//
// Part of the Mix reproduction of "Mixing Type Checking and Symbolic
// Execution" (PLDI 2010).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The solver backends ("dnf", "smtlite") and the SolverSpec the driver
/// layer parses `--solver=` into.
///
//===----------------------------------------------------------------------===//

#ifndef MIX_SOLVER_SOLVERFACTORY_H
#define MIX_SOLVER_SOLVERFACTORY_H

#include "solver/ISolver.h"

#include <memory>
#include <string>
#include <vector>

namespace mix::smt {

/// Which backend to run. Witness models and diagnostics come from it
/// deterministically.
struct SolverSpec {
  std::string Backend = "smtlite";
};

/// Validates and parses a `--solver=` value into \p Out. On failure
/// returns false with a message (listing the backends) in \p Err.
bool parseSolverBackend(const std::string &Name, SolverSpec &Out,
                        std::string &Err);

/// Backend names, sorted (deterministic across runs).
std::vector<std::string> registeredBackends();

/// Creates the solver \p Spec describes over \p Arena. Returns null for
/// an unknown backend name.
std::unique_ptr<ISolver> createSolver(const SolverSpec &Spec, TermArena &Arena,
                                      const SmtOptions &Opts);

} // namespace mix::smt

#endif // MIX_SOLVER_SOLVERFACTORY_H
