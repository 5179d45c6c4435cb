//===--- SolverFactory.cpp - Solver backend selection ---------------------===//
//
// Part of the Mix reproduction of "Mixing Type Checking and Symbolic
// Execution" (PLDI 2010).
//
//===----------------------------------------------------------------------===//

#include "solver/SolverFactory.h"

#include "solver/DnfSolver.h"
#include "solver/SmtSolver.h"

#include <iterator>

using namespace mix::smt;

/// Name-sorted, so listings are deterministic.
static const char *const Backends[] = {"dnf", "smtlite"};

std::vector<std::string> mix::smt::registeredBackends() {
  return {std::begin(Backends), std::end(Backends)};
}

bool mix::smt::parseSolverBackend(const std::string &Name, SolverSpec &Out,
                                  std::string &Err) {
  for (const char *Known : Backends)
    if (Name == Known) {
      Out.Backend = Name;
      return true;
    }
  Err = "unknown solver backend '" + Name + "' (available:";
  for (const char *Known : Backends)
    Err += std::string(" ") + Known;
  Err += ")";
  return false;
}

std::unique_ptr<ISolver> mix::smt::createSolver(const SolverSpec &Spec,
                                                TermArena &Arena,
                                                const SmtOptions &Opts) {
  if (Spec.Backend == "smtlite")
    return std::make_unique<SmtSolver>(Arena, Opts);
  if (Spec.Backend == "dnf")
    return std::make_unique<DnfSolver>(Arena, Opts);
  return nullptr;
}
