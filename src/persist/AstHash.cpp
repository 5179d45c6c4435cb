//===--- AstHash.cpp - Stable content hashes over mini-C ASTs ---------------===//
//
// Part of the Mix reproduction of "Mixing Type Checking and Symbolic
// Execution" (PLDI 2010).
//
//===----------------------------------------------------------------------===//

#include "persist/AstHash.h"

#include "cfront/CPrinter.h"
#include "support/Hash.h"
#include "support/Scc.h"

#include <algorithm>
#include <bit>
#include <unordered_map>

using namespace mix::persist;
using namespace mix::c;

uint64_t mix::persist::functionContentHash(const CFuncDecl &F) {
  StableHasher H;
  H.str(F.name());
  H.u8((uint8_t)F.mixAnnot());
  H.str(printDecl(F.returnType(), ""));
  H.u32((uint32_t)F.params().size());
  for (const CFuncDecl::Param &P : F.params()) {
    H.str(P.Name);
    H.str(printDecl(P.Ty, ""));
  }
  H.boolean(F.isDefined());
  if (F.isDefined())
    H.str(printStmt(F.body()));
  return H.digest();
}

uint64_t mix::persist::environmentHash(const CProgram &P) {
  StableHasher H;
  H.u32((uint32_t)P.Structs.size());
  for (const CStructDecl *S : P.Structs) {
    H.str(S->name());
    H.u32((uint32_t)S->fields().size());
    for (const CStructDecl::Field &F : S->fields()) {
      H.str(F.Name);
      H.str(printDecl(F.Ty, ""));
    }
  }
  H.u32((uint32_t)P.Globals.size());
  for (const CGlobalDecl *G : P.Globals) {
    H.str(G->name());
    H.str(printDecl(G->type(), ""));
    H.boolean(G->init() != nullptr);
    if (G->init())
      H.str(printExpr(G->init()));
  }
  // Extern signatures are part of every block's environment; defined
  // bodies are covered per-function by the closure hashes.
  for (const CFuncDecl *F : P.Funcs)
    if (!F->isDefined())
      H.u64(functionContentHash(*F));
  return H.digest();
}

std::map<const CFuncDecl *, uint64_t> mix::persist::closureHashes(
    const std::map<const CFuncDecl *, uint64_t> &Content,
    const std::map<const CFuncDecl *, std::vector<const CFuncDecl *>> &Deps,
    uint64_t EnvHash) {
  // Index every node. Functions with content come first, ordered by
  // content hash, so walking a cone's bits in index order yields its
  // hashes already sorted; content-less nodes (extern callees, say)
  // follow.
  std::vector<std::pair<uint64_t, const CFuncDecl *>> Sorted;
  for (const auto &[F, Hash] : Content)
    Sorted.emplace_back(Hash, F);
  std::sort(Sorted.begin(), Sorted.end());
  size_t NumContent = Sorted.size();
  std::unordered_map<const CFuncDecl *, size_t> Index;
  auto Intern = [&](const CFuncDecl *F) { Index.emplace(F, Index.size()); };
  for (const auto &[Hash, F] : Sorted)
    Intern(F);
  for (const auto &[F, Targets] : Deps) {
    Intern(F);
    for (const CFuncDecl *T : Targets)
      Intern(T);
  }
  size_t N = Index.size();
  std::vector<std::vector<size_t>> Adj(N);
  for (const auto &[F, Targets] : Deps) {
    std::vector<size_t> &Out = Adj[Index.at(F)];
    for (const CFuncDecl *T : Targets)
      Out.push_back(Index.at(T));
    std::sort(Out.begin(), Out.end());
    Out.erase(std::unique(Out.begin(), Out.end()), Out.end());
  }

  // Condense once. Tarjan emits sinks first, so every successor SCC's
  // cone is complete before a predecessor needs it: an SCC's cone is its
  // own members OR its successors' cones, as a node bitset. All members
  // of an SCC reach the same set, so they share one digest.
  std::vector<std::vector<size_t>> Sccs = tarjanSccs(N, Adj);
  std::vector<size_t> SccOf(N);
  for (size_t S = 0; S != Sccs.size(); ++S)
    for (size_t V : Sccs[S])
      SccOf[V] = S;
  size_t Words = (N + 63) / 64;
  std::vector<std::vector<uint64_t>> Cones(Sccs.size());
  std::map<const CFuncDecl *, uint64_t> Out;
  for (size_t S = 0; S != Sccs.size(); ++S) {
    std::vector<uint64_t> &Cone = Cones[S];
    Cone.assign(Words, 0);
    for (size_t V : Sccs[S]) {
      Cone[V / 64] |= uint64_t(1) << (V % 64);
      for (size_t W : Adj[V])
        if (SccOf[W] != S)
          for (size_t I = 0; I != Words; ++I)
            Cone[I] |= Cones[SccOf[W]][I];
    }
    // Members are sorted, so this SCC holds content iff its first does.
    if (Sccs[S].front() >= NumContent)
      continue;
    // One entry per function, so equal content hashes still count twice.
    std::vector<uint64_t> Hashes;
    for (size_t I = 0; I * 64 < NumContent; ++I)
      for (uint64_t Bits = Cone[I]; Bits; Bits &= Bits - 1) {
        size_t V = I * 64 + (size_t)std::countr_zero(Bits);
        if (V < NumContent)
          Hashes.push_back(Sorted[V].first);
      }
    StableHasher H;
    H.u64(EnvHash);
    H.u32((uint32_t)Hashes.size());
    for (uint64_t C : Hashes)
      H.u64(C);
    uint64_t Digest = H.digest();
    for (size_t V : Sccs[S])
      if (V < NumContent)
        Out.emplace(Sorted[V].second, Digest);
  }
  return Out;
}
