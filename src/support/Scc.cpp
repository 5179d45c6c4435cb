//===--- Scc.cpp - Strongly connected components ----------------------------===//
//
// Part of the Mix reproduction of "Mixing Type Checking and Symbolic
// Execution" (PLDI 2010).
//
//===----------------------------------------------------------------------===//

#include "support/Scc.h"

#include <algorithm>

std::vector<std::vector<size_t>>
mix::tarjanSccs(size_t N, const std::vector<std::vector<size_t>> &Adj) {
  std::vector<std::vector<size_t>> Sccs;
  constexpr size_t Unvisited = (size_t)-1;
  std::vector<size_t> Index(N, Unvisited), Low(N, 0);
  std::vector<bool> OnStack(N, false);
  std::vector<size_t> Stack;
  size_t NextIndex = 0;

  struct Frame {
    size_t V;
    size_t Child;
  };
  std::vector<Frame> Frames;

  for (size_t Root = 0; Root != N; ++Root) {
    if (Index[Root] != Unvisited)
      continue;
    Frames.push_back({Root, 0});
    while (!Frames.empty()) {
      // Re-take the reference each iteration: pushes below may
      // reallocate Frames.
      size_t V = Frames.back().V;
      size_t Child = Frames.back().Child;
      if (Child == 0) {
        Index[V] = Low[V] = NextIndex++;
        Stack.push_back(V);
        OnStack[V] = true;
      }
      bool Descended = false;
      const std::vector<size_t> &Out = Adj[V];
      while (Child < Out.size()) {
        size_t W = Out[Child];
        ++Child;
        if (Index[W] == Unvisited) {
          Frames.back().Child = Child;
          Frames.push_back({W, 0});
          Descended = true;
          break;
        }
        if (OnStack[W])
          Low[V] = std::min(Low[V], Index[W]);
      }
      if (Descended)
        continue;
      Frames.back().Child = Child;
      if (Low[V] == Index[V]) {
        std::vector<size_t> Scc;
        for (;;) {
          size_t W = Stack.back();
          Stack.pop_back();
          OnStack[W] = false;
          Scc.push_back(W);
          if (W == V)
            break;
        }
        std::sort(Scc.begin(), Scc.end());
        Sccs.push_back(std::move(Scc));
      }
      Frames.pop_back();
      if (!Frames.empty())
        Low[Frames.back().V] = std::min(Low[Frames.back().V], Low[V]);
    }
  }
  return Sccs;
}
