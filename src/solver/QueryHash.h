//===--- QueryHash.h - Canonical solver-query hashing -----------*- C++ -*-===//
//
// Part of the Mix reproduction of "Mixing Type Checking and Symbolic
// Execution" (PLDI 2010).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The key half of the persistent solver-query cache (src/persist/): a
/// stable 64-bit digest of a formula that is invariant under variable-id
/// allocation order. TermArena hands out ids in creation order, which
/// depends on execution history (a warm run replays blocks instead of
/// executing them), so raw ids cannot appear in a cross-run key. Instead,
/// variables are renumbered by first occurrence in a deterministic
/// left-to-right preorder walk of the formula — alpha-equivalent queries
/// built in different runs digest identically, and structurally different
/// queries (modulo 64-bit collisions) do not.
///
//===----------------------------------------------------------------------===//

#ifndef MIX_SOLVER_QUERYHASH_H
#define MIX_SOLVER_QUERYHASH_H

#include "solver/Term.h"

#include <cstdint>

namespace mix::smt {

/// Stable, variable-renaming-invariant digest of \p Formula. Safe to use
/// as an on-disk cache key: satisfiability is decided by structure alone,
/// so two formulas with equal digests (no collision) have the same
/// Sat/Unsat verdict.
uint64_t canonicalQueryHash(const Term *Formula);

} // namespace mix::smt

#endif // MIX_SOLVER_QUERYHASH_H
