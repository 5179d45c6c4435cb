//===--- Scc.h - Strongly connected components ------------------*- C++ -*-===//
//
// Part of the Mix reproduction of "Mixing Type Checking and Symbolic
// Execution" (PLDI 2010).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tarjan's strongly-connected-components algorithm, used by the
/// persistent cache's dependency-closure hashes (which condense the
/// dependency graph before computing reachable sets).
///
//===----------------------------------------------------------------------===//

#ifndef MIX_SUPPORT_SCC_H
#define MIX_SUPPORT_SCC_H

#include <cstddef>
#include <vector>

namespace mix {

/// Iterative Tarjan SCC over the adjacency list \p Adj of nodes
/// 0..N-1 (no recursion, so deep graphs cannot overflow the stack).
/// Emits SCCs in reverse topological order (every SCC before its
/// predecessors, i.e. sinks first), members sorted ascending.
/// Deterministic: a pure function of the adjacency list.
std::vector<std::vector<size_t>>
tarjanSccs(size_t N, const std::vector<std::vector<size_t>> &Adj);

} // namespace mix

#endif // MIX_SUPPORT_SCC_H
