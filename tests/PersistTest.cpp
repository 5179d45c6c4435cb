//===--- PersistTest.cpp - Tests for the persistent cache layer -----------===//
//
// Part of the Mix reproduction of "Mixing Type Checking and Symbolic
// Execution" (PLDI 2010).
//
// Covers src/persist/: the checksummed record-file container (round-trip
// plus every corruption mode in the failure contract), the three stores,
// PersistSession's cold/warm/degraded lifecycle including concurrent
// writers sharing a cache directory, and the dependency-closure hashes
// that persistent block keys embed (against a brute-force oracle and
// pinned golden values).
//
//===----------------------------------------------------------------------===//

#include "cfront/CParser.h"
#include "persist/AstHash.h"
#include "persist/PersistSession.h"
#include "persist/RecordFile.h"
#include "support/Hash.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <map>
#include <random>
#include <string>
#include <thread>
#include <vector>

using namespace mix;
using namespace mix::persist;

namespace {

/// A fresh, empty directory per test; removed on destruction so ctest -j
/// runs never share state.
class TempDir {
public:
  explicit TempDir(const std::string &Name)
      : Path(::testing::TempDir() + "mix_persist_" + Name) {
    std::filesystem::remove_all(Path);
    std::filesystem::create_directories(Path);
  }
  ~TempDir() { std::filesystem::remove_all(Path); }
  std::string file(const std::string &Name) const { return Path + "/" + Name; }
  const std::string Path;
};

std::string slurp(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(In)),
                     std::istreambuf_iterator<char>());
}

void spit(const std::string &Path, const std::string &Bytes) {
  std::ofstream Out(Path, std::ios::binary | std::ios::trunc);
  Out << Bytes;
}

//===----------------------------------------------------------------------===//
// ByteWriter / ByteReader
//===----------------------------------------------------------------------===//

TEST(ByteCodecTest, RoundTrip) {
  ByteWriter W;
  W.u8(7).u16(300).u32(70000).u64(1ull << 40).boolean(true).str("hello");
  ByteReader R(W.bytes());
  EXPECT_EQ(R.u8(), 7u);
  EXPECT_EQ(R.u16(), 300u);
  EXPECT_EQ(R.u32(), 70000u);
  EXPECT_EQ(R.u64(), 1ull << 40);
  EXPECT_TRUE(R.boolean());
  EXPECT_EQ(R.str(), "hello");
  EXPECT_TRUE(R.ok());
  EXPECT_TRUE(R.atEnd());
}

TEST(ByteCodecTest, ReadPastEndFailsSoftly) {
  std::string Short("\x01", 1);
  ByteReader R(Short);
  (void)R.u32();        // value is unspecified on a truncated read...
  EXPECT_FALSE(R.ok()); // ...but the sticky error flag must trip
  EXPECT_EQ(R.u64(), 0u); // past the end entirely: all zero bytes
}

TEST(ByteCodecTest, OversizedStringLengthFails) {
  ByteWriter W;
  W.u32(1000); // claims 1000 bytes, provides none
  ByteReader R(W.bytes());
  EXPECT_EQ(R.str(), "");
  EXPECT_FALSE(R.ok());
}

//===----------------------------------------------------------------------===//
// RecordFile: round-trip and the failure contract
//===----------------------------------------------------------------------===//

const uint64_t FP = 0x1234;

TEST(RecordFileTest, RoundTrip) {
  TempDir D("roundtrip");
  std::vector<std::string> In = {"alpha", std::string("\0\xff", 2), ""};
  std::string Error;
  ASSERT_TRUE(saveRecordFile(D.file("s.mixcache"), FP, In, Error)) << Error;

  std::vector<std::string> Out;
  EXPECT_EQ(loadRecordFile(D.file("s.mixcache"), FP, Out, Error),
            LoadStatus::Ok);
  EXPECT_EQ(Out, In);
}

TEST(RecordFileTest, MissingFileIsACleanColdStart) {
  TempDir D("missing");
  std::vector<std::string> Out;
  std::string Error;
  EXPECT_EQ(loadRecordFile(D.file("absent.mixcache"), FP, Out, Error),
            LoadStatus::Missing);
  EXPECT_TRUE(Out.empty());
}

TEST(RecordFileTest, FingerprintMismatchLoadsEmptyNotCorrupt) {
  // Changed analysis options are a normal event, not file damage.
  TempDir D("fingerprint");
  std::string Error;
  ASSERT_TRUE(saveRecordFile(D.file("s.mixcache"), FP, {"payload"}, Error));
  std::vector<std::string> Out;
  EXPECT_EQ(loadRecordFile(D.file("s.mixcache"), FP + 1, Out, Error),
            LoadStatus::Missing);
  EXPECT_TRUE(Out.empty());
}

TEST(RecordFileTest, TruncatedFileIsCorrupt) {
  TempDir D("truncated");
  std::string Error;
  ASSERT_TRUE(
      saveRecordFile(D.file("s.mixcache"), FP, {"some payload data"}, Error));
  std::string Bytes = slurp(D.file("s.mixcache"));
  ASSERT_GT(Bytes.size(), 4u);
  spit(D.file("s.mixcache"), Bytes.substr(0, Bytes.size() - 4));

  std::vector<std::string> Out;
  EXPECT_EQ(loadRecordFile(D.file("s.mixcache"), FP, Out, Error),
            LoadStatus::Corrupt);
  EXPECT_TRUE(Out.empty());
  EXPECT_FALSE(Error.empty());
}

TEST(RecordFileTest, FlippedChecksumByteIsCorrupt) {
  TempDir D("checksum");
  std::string Error;
  ASSERT_TRUE(saveRecordFile(D.file("s.mixcache"), FP, {"payload"}, Error));
  std::string Bytes = slurp(D.file("s.mixcache"));
  Bytes.back() ^= 0x40; // last byte lies inside the record checksum
  spit(D.file("s.mixcache"), Bytes);

  std::vector<std::string> Out;
  EXPECT_EQ(loadRecordFile(D.file("s.mixcache"), FP, Out, Error),
            LoadStatus::Corrupt);
  EXPECT_NE(Error.find("checksum"), std::string::npos) << Error;
}

TEST(RecordFileTest, FlippedPayloadByteIsCorrupt) {
  TempDir D("payload");
  std::string Error;
  ASSERT_TRUE(
      saveRecordFile(D.file("s.mixcache"), FP, {"payload bytes"}, Error));
  std::string Bytes = slurp(D.file("s.mixcache"));
  // 8 magic + 4 version + 8 fingerprint + 4 length: first payload byte.
  Bytes[24] ^= 0x01;
  spit(D.file("s.mixcache"), Bytes);

  std::vector<std::string> Out;
  EXPECT_EQ(loadRecordFile(D.file("s.mixcache"), FP, Out, Error),
            LoadStatus::Corrupt);
}

TEST(RecordFileTest, BadMagicIsCorrupt) {
  TempDir D("magic");
  spit(D.file("s.mixcache"), "NOTMYFMT with trailing bytes beyond header");
  std::vector<std::string> Out;
  std::string Error;
  EXPECT_EQ(loadRecordFile(D.file("s.mixcache"), FP, Out, Error),
            LoadStatus::Corrupt);
  EXPECT_NE(Error.find("magic"), std::string::npos) << Error;
}

TEST(RecordFileTest, VersionSkewIsCorrupt) {
  TempDir D("version");
  ByteWriter Rest;
  Rest.u32(FormatVersion + 1).u64(FP);
  spit(D.file("s.mixcache"), "MIXPERST" + Rest.take());

  std::vector<std::string> Out;
  std::string Error;
  EXPECT_EQ(loadRecordFile(D.file("s.mixcache"), FP, Out, Error),
            LoadStatus::Corrupt);
  EXPECT_NE(Error.find("version"), std::string::npos) << Error;
}

TEST(RecordFileTest, ConcurrentWritersNeverTearTheFile) {
  // Two writers race on the same path; rename() publication means any
  // subsequent load sees one writer's complete file, never a mix.
  TempDir D("race");
  const std::string Path = D.file("s.mixcache");
  auto Writer = [&](const std::string &Payload) {
    for (int I = 0; I != 50; ++I) {
      std::string Error;
      ASSERT_TRUE(saveRecordFile(Path, FP, {Payload}, Error)) << Error;
    }
  };
  std::thread A(Writer, std::string(100, 'a'));
  std::thread B(Writer, std::string(2000, 'b'));
  A.join();
  B.join();

  std::vector<std::string> Out;
  std::string Error;
  ASSERT_EQ(loadRecordFile(Path, FP, Out, Error), LoadStatus::Ok) << Error;
  ASSERT_EQ(Out.size(), 1u);
  EXPECT_TRUE(Out[0] == std::string(100, 'a') ||
              Out[0] == std::string(2000, 'b'));
}

//===----------------------------------------------------------------------===//
// Stores
//===----------------------------------------------------------------------===//

TEST(SolverQueryStoreTest, StoreLookupEncodeDecode) {
  SolverQueryStore S(nullptr);
  S.store(1, smt::SolveResult::Sat);
  S.store(2, smt::SolveResult::Unsat);
  S.store(3, smt::SolveResult::Unknown); // never persisted: not a verdict
  EXPECT_EQ(S.size(), 2u);

  smt::SolveResult R;
  ASSERT_TRUE(S.lookup(1, R));
  EXPECT_EQ(R, smt::SolveResult::Sat);
  ASSERT_TRUE(S.lookup(2, R));
  EXPECT_EQ(R, smt::SolveResult::Unsat);
  EXPECT_FALSE(S.lookup(3, R));

  SolverQueryStore S2(nullptr);
  ASSERT_TRUE(S2.decode(S.encode()));
  EXPECT_EQ(S2.size(), 2u);
  ASSERT_TRUE(S2.lookup(1, R));
  EXPECT_EQ(R, smt::SolveResult::Sat);
}

TEST(SolverQueryStoreTest, MalformedRecordRejected) {
  SolverQueryStore S(nullptr);
  EXPECT_FALSE(S.decode({std::string("zz")}));
  EXPECT_EQ(S.size(), 0u);
}

TEST(BlockSummaryStoreTest, OpaquePayloadRoundTrip) {
  BlockSummaryStore B(nullptr);
  EXPECT_FALSE(B.lookup(9).has_value());
  B.store(9, std::string("\x01payload\x00", 9));
  auto Hit = B.lookup(9);
  ASSERT_TRUE(Hit.has_value());
  EXPECT_EQ(*Hit, std::string("\x01payload\x00", 9));

  BlockSummaryStore B2(nullptr);
  ASSERT_TRUE(B2.decode(B.encode()));
  EXPECT_EQ(B2.size(), 1u);
  EXPECT_TRUE(B2.lookup(9).has_value());
}

TEST(BlockSummaryStoreTest, OnlyUsedEntriesAreSaved) {
  BlockSummaryStore Loaded(nullptr);
  {
    BlockSummaryStore B(nullptr);
    B.store(1, "hit later");
    B.store(2, "never used again");
    B.store(3, "overwritten");
    ASSERT_TRUE(Loaded.decode(B.encode()));
  }
  // Freshly loaded entries are unmarked: nothing would be written back.
  EXPECT_EQ(Loaded.size(), 3u);
  EXPECT_TRUE(Loaded.encode().empty());
  // A miss marks nothing; a hit and a store each mark their key.
  EXPECT_FALSE(Loaded.lookup(4).has_value());
  EXPECT_TRUE(Loaded.lookup(1).has_value());
  Loaded.store(3, "fresh");
  Loaded.store(5, "new");

  BlockSummaryStore Saved(nullptr);
  ASSERT_TRUE(Saved.decode(Loaded.encode()));
  EXPECT_EQ(Saved.size(), 3u);
  EXPECT_EQ(Saved.lookup(1), std::optional<std::string>("hit later"));
  EXPECT_FALSE(Saved.lookup(2).has_value());
  EXPECT_EQ(Saved.lookup(3), std::optional<std::string>("fresh"));
  EXPECT_EQ(Saved.lookup(5), std::optional<std::string>("new"));
}

TEST(ManifestTest, RoundTrip) {
  Manifest M;
  M.Funcs["f"] = {11, 21};
  M.Funcs["g"] = {12, 22};
  Manifest M2;
  ASSERT_TRUE(M2.decode(M.encode()));
  ASSERT_EQ(M2.Funcs.size(), 2u);
  EXPECT_EQ(M2.Funcs["f"].ContentHash, 11u);
  EXPECT_EQ(M2.Funcs["g"].ClosureHash, 22u);
}

//===----------------------------------------------------------------------===//
// PersistSession lifecycle
//===----------------------------------------------------------------------===//

PersistOptions sessionOpts(const std::string &Dir, bool Incremental = true) {
  PersistOptions PO;
  PO.Dir = Dir;
  PO.Incremental = Incremental;
  PO.BlockFingerprint = 42;
  return PO;
}

TEST(PersistSessionTest, ColdThenWarm) {
  TempDir D("session");
  {
    PersistSession S(sessionOpts(D.Path));
    EXPECT_TRUE(S.degradedReason().empty());
    EXPECT_TRUE(S.previousManifest().Funcs.empty());
    S.solverCache().store(5, smt::SolveResult::Unsat);
    S.blocks().store(7, "summary");
    Manifest M;
    M.Funcs["main"] = {1, 2};
    S.setCurrentManifest(std::move(M));
    std::string Error;
    ASSERT_TRUE(S.save(&Error)) << Error;
  }
  PersistSession Warm(sessionOpts(D.Path));
  EXPECT_TRUE(Warm.degradedReason().empty());
  smt::SolveResult R;
  ASSERT_TRUE(Warm.solverCache().lookup(5, R));
  EXPECT_EQ(R, smt::SolveResult::Unsat);
  EXPECT_TRUE(Warm.blocks().lookup(7).has_value());
  EXPECT_EQ(Warm.previousManifest().Funcs.at("main").ClosureHash, 2u);
}

TEST(PersistSessionTest, BlockFingerprintChangeLoadsColdSilently) {
  TempDir D("refp");
  {
    PersistSession S(sessionOpts(D.Path));
    S.blocks().store(7, "summary");
    ASSERT_TRUE(S.save());
  }
  PersistOptions PO = sessionOpts(D.Path);
  PO.BlockFingerprint = 43; // analysis options changed
  PersistSession S(PO);
  EXPECT_TRUE(S.degradedReason().empty()); // not an anomaly
  EXPECT_FALSE(S.blocks().lookup(7).has_value());
}

TEST(PersistSessionTest, CorruptStoreDegradesButSessionWorks) {
  TempDir D("degraded");
  {
    PersistSession S(sessionOpts(D.Path));
    S.solverCache().store(5, smt::SolveResult::Sat);
    ASSERT_TRUE(S.save());
  }
  std::string Bytes = slurp(D.file("solver.mixcache"));
  Bytes.back() ^= 0x01;
  spit(D.file("solver.mixcache"), Bytes);

  obs::MetricsRegistry Reg;
  PersistOptions PO = sessionOpts(D.Path);
  PO.Metrics = &Reg;
  PersistSession S(PO);
  EXPECT_FALSE(S.degradedReason().empty());
  EXPECT_EQ(Reg.counterValue("persist.degraded"), 1u);
  // Cold but functional: stores work and a save repairs the directory.
  smt::SolveResult R;
  EXPECT_FALSE(S.solverCache().lookup(5, R));
  S.solverCache().store(6, smt::SolveResult::Sat);
  ASSERT_TRUE(S.save());
  PersistSession S2(sessionOpts(D.Path));
  EXPECT_TRUE(S2.degradedReason().empty());
  EXPECT_TRUE(S2.solverCache().lookup(6, R));
}

TEST(PersistSessionTest, UnusableDirectoryDegrades) {
  TempDir D("blocked");
  spit(D.file("not_a_dir"), "file"); // a file where the dir should be
  PersistSession S(sessionOpts(D.file("not_a_dir") + "/cache"));
  EXPECT_FALSE(S.degradedReason().empty());
  EXPECT_FALSE(S.save()); // nothing to write into
}

TEST(PersistSessionTest, SolverStoreSharedAcrossFingerprints) {
  // Sat/Unsat verdicts are option-independent, so the solver store loads
  // under any block fingerprint.
  TempDir D("solvershared");
  {
    PersistSession S(sessionOpts(D.Path));
    S.solverCache().store(5, smt::SolveResult::Sat);
    ASSERT_TRUE(S.save());
  }
  PersistOptions PO = sessionOpts(D.Path);
  PO.BlockFingerprint = 99;
  PersistSession S(PO);
  smt::SolveResult R;
  EXPECT_TRUE(S.solverCache().lookup(5, R));
}

TEST(PersistSessionTest, GenerationStampLifecycle) {
  TempDir D("generation");
  PersistSession A(sessionOpts(D.Path));
  EXPECT_EQ(A.generation(), 0u); // cold start: no stamp on disk
  EXPECT_FALSE(A.externallyModified());

  ASSERT_TRUE(A.save());
  EXPECT_EQ(A.generation(), 1u);
  // Our own save is not an external modification.
  EXPECT_FALSE(A.externallyModified());

  PersistSession B(sessionOpts(D.Path));
  EXPECT_EQ(B.generation(), 1u); // loads what A published
  ASSERT_TRUE(B.save());
  EXPECT_EQ(B.generation(), 2u);
}

TEST(PersistSessionTest, ReopenInProcessAfterExternalWriter) {
  // The daemon scenario: a long-lived session must notice that another
  // writer published into its cache directory, and a reopened session
  // (what AnalysisService does on externallyModified) sees the new data
  // instead of replaying the stale manifest.
  TempDir D("reopen");
  PersistSession A(sessionOpts(D.Path));
  A.blocks().store(7, "from A");
  Manifest MA;
  MA.Funcs["f"] = {1, 1};
  A.setCurrentManifest(std::move(MA));
  ASSERT_TRUE(A.save());
  EXPECT_FALSE(A.externallyModified());

  {
    // A second writer (another process, modeled in-process) publishes.
    PersistSession B(sessionOpts(D.Path));
    B.blocks().store(8, "from B");
    Manifest MB;
    MB.Funcs["g"] = {2, 2};
    B.setCurrentManifest(std::move(MB));
    ASSERT_TRUE(B.save());
  }

  // A's loaded state is now stale and it must say so.
  EXPECT_TRUE(A.externallyModified());

  // Reopening the directory observes the latest generation and data.
  PersistSession C(sessionOpts(D.Path));
  EXPECT_EQ(C.generation(), 2u);
  EXPECT_FALSE(C.externallyModified());
  EXPECT_TRUE(C.blocks().lookup(8).has_value());
  EXPECT_EQ(C.previousManifest().Funcs.count("g"), 1u);
}

TEST(PersistSessionTest, StampIsWrittenLast) {
  // The generation stamp publishes after the data files, so a reader
  // that observes the new generation also observes the new data: after
  // any successful save, the stamp on disk equals the session's
  // generation and every data file is in place.
  TempDir D("stamplast");
  PersistSession S(sessionOpts(D.Path));
  S.blocks().store(1, "payload");
  ASSERT_TRUE(S.save());
  EXPECT_TRUE(std::filesystem::exists(D.file("generation.mixcache")));
  EXPECT_TRUE(std::filesystem::exists(D.file("blocks.mixcache")));
  // A fresh reader agrees on the generation and finds the data.
  PersistSession R(sessionOpts(D.Path));
  EXPECT_EQ(R.generation(), S.generation());
  EXPECT_TRUE(R.blocks().lookup(1).has_value());
}

TEST(PersistSessionTest, InvalidateSummariesClearsButKeepsSolver) {
  obs::MetricsRegistry Reg;
  TempDir D("invalidate");
  PersistOptions PO = sessionOpts(D.Path);
  PO.Metrics = &Reg;
  PersistSession S(PO);
  S.solverCache().store(5, smt::SolveResult::Unsat);
  S.blocks().store(7, "summary");
  Manifest M;
  M.Funcs["main"] = {1, 2};
  S.setCurrentManifest(std::move(M));

  S.invalidateSummaries();
  EXPECT_EQ(Reg.counterValue("persist.invalidations"), 1u);
  EXPECT_FALSE(S.blocks().lookup(7).has_value());
  EXPECT_TRUE(S.previousManifest().Funcs.empty());
  // Solver verdicts are formula-keyed: they can never go stale when a
  // source file changes, so they survive the invalidation.
  smt::SolveResult R;
  EXPECT_TRUE(S.solverCache().lookup(5, R));
  EXPECT_EQ(R, smt::SolveResult::Unsat);
}

TEST(PersistSessionTest, InMemorySessionNeverTouchesDisk) {
  TempDir D("inmemory");
  PersistOptions PO = sessionOpts(D.Path);
  PO.InMemory = true;
  PersistSession S(PO);
  EXPECT_TRUE(S.degradedReason().empty());
  S.blocks().store(7, "summary");
  S.solverCache().store(5, smt::SolveResult::Sat);
  ASSERT_TRUE(S.save()); // a successful no-op
  EXPECT_FALSE(S.externallyModified());
  // The warm state *is* the store; nothing was published to disk.
  EXPECT_TRUE(std::filesystem::is_empty(D.Path));
  EXPECT_TRUE(S.blocks().lookup(7).has_value());
}

TEST(PersistSessionTest, MetricsCounters) {
  obs::MetricsRegistry Reg;
  TempDir D("metrics");
  PersistOptions PO = sessionOpts(D.Path);
  PO.Metrics = &Reg;
  PersistSession S(PO);
  smt::SolveResult R;
  S.solverCache().lookup(1, R);
  S.solverCache().store(1, smt::SolveResult::Sat);
  S.solverCache().lookup(1, R);
  S.blocks().lookup(2);
  S.blocks().store(2, "p");
  S.blocks().lookup(2);
  EXPECT_EQ(Reg.counterValue("persist.solver.misses"), 1u);
  EXPECT_EQ(Reg.counterValue("persist.solver.hits"), 1u);
  EXPECT_EQ(Reg.counterValue("persist.solver.stores"), 1u);
  EXPECT_EQ(Reg.counterValue("persist.block.misses"), 1u);
  EXPECT_EQ(Reg.counterValue("persist.block.hits"), 1u);
  EXPECT_EQ(Reg.counterValue("persist.block.stores"), 1u);
}

//===----------------------------------------------------------------------===//
// Dependency-closure hashes
//===----------------------------------------------------------------------===//

using FuncMap = std::map<const c::CFuncDecl *, uint64_t>;
using DepMap =
    std::map<const c::CFuncDecl *, std::vector<const c::CFuncDecl *>>;

/// The oracle: an independent breadth-first search from every function,
/// collecting the content hashes of everything reachable (reflexively)
/// and digesting them sorted. Shares nothing with closureHashes but the
/// digest layout.
FuncMap bfsClosureHashes(const FuncMap &Content, const DepMap &Deps,
                         uint64_t EnvHash) {
  FuncMap Out;
  for (const auto &[F, Hash] : Content) {
    (void)Hash;
    std::vector<const c::CFuncDecl *> Work{F};
    std::map<const c::CFuncDecl *, bool> Seen{{F, true}};
    std::vector<uint64_t> Cone;
    while (!Work.empty()) {
      const c::CFuncDecl *Cur = Work.back();
      Work.pop_back();
      auto It = Content.find(Cur);
      if (It != Content.end())
        Cone.push_back(It->second);
      auto DepIt = Deps.find(Cur);
      if (DepIt == Deps.end())
        continue;
      for (const c::CFuncDecl *Next : DepIt->second)
        if (Seen.emplace(Next, true).second)
          Work.push_back(Next);
    }
    std::sort(Cone.begin(), Cone.end());
    StableHasher H;
    H.u64(EnvHash);
    H.u32((uint32_t)Cone.size());
    for (uint64_t C : Cone)
      H.u64(C);
    Out[F] = H.digest();
  }
  return Out;
}

/// A parsed program of \p N trivial functions, whose declarations serve
/// as graph nodes.
struct NodePool {
  explicit NodePool(unsigned N) {
    std::string Source;
    for (unsigned I = 0; I != N; ++I)
      Source += "int f" + std::to_string(I) + "(void) { return 0; }\n";
    const c::CProgram *P = c::parseC(Source, Ctx, Diags);
    EXPECT_NE(P, nullptr) << Diags.str();
    if (P)
      Nodes.assign(P->Funcs.begin(), P->Funcs.end());
  }
  c::CAstContext Ctx;
  DiagnosticEngine Diags;
  std::vector<const c::CFuncDecl *> Nodes;
};

TEST(ClosureHashTest, EmptyGraph) {
  EXPECT_TRUE(closureHashes({}, {}, 7).empty());
  // Dependency edges without any content produce no hashes either.
  NodePool Pool(2);
  EXPECT_TRUE(
      closureHashes({}, {{Pool.Nodes[0], {Pool.Nodes[1]}}}, 7).empty());
}

TEST(ClosureHashTest, MatchesBreadthFirstOracleOnRandomGraphs) {
  NodePool Pool(40);
  ASSERT_EQ(Pool.Nodes.size(), 40u);
  for (unsigned Seed = 0; Seed != 600; ++Seed) {
    SCOPED_TRACE("seed " + std::to_string(Seed));
    std::mt19937 Rng(Seed);
    auto Pick = [&](unsigned Bound) {
      return std::uniform_int_distribution<unsigned>(0, Bound - 1)(Rng);
    };
    unsigned N = Seed == 0 ? 0 : 1 + Pick(40);
    // Density from a tree-like sprinkle to nearly complete.
    unsigned MaxOut = 1 + Pick(Seed % 5 == 0 ? N + 1 : 4);
    // Small hash ranges force colliding content hashes (the digest is
    // over a multiset: one entry per function, duplicates kept).
    uint64_t HashRange = Seed % 3 == 0 ? 3 : ~0ull;
    FuncMap Content;
    DepMap Deps;
    for (unsigned I = 0; I != N; ++I) {
      const c::CFuncDecl *F = Pool.Nodes[I];
      // Roughly one node in six is an extern target: no content.
      if (Pick(6) != 0)
        Content[F] = std::uniform_int_distribution<uint64_t>(
            1, HashRange)(Rng);
      // Some nodes have no Deps entry at all, some an empty one.
      unsigned Shape = Pick(5);
      if (Shape == 0)
        continue;
      std::vector<const c::CFuncDecl *> &Out = Deps[F];
      if (Shape == 1)
        continue;
      unsigned Count = Pick(MaxOut + 1);
      for (unsigned E = 0; E != Count; ++E) {
        unsigned To = Pick(N);
        Out.push_back(Pool.Nodes[To]);
        if (Pick(4) == 0) // duplicate edge
          Out.push_back(Pool.Nodes[To]);
      }
      if (Pick(8) == 0) // self-loop
        Out.push_back(F);
    }
    uint64_t Env = Rng();
    EXPECT_EQ(closureHashes(Content, Deps, Env),
              bfsClosureHashes(Content, Deps, Env));
  }
}

/// A fixed program with calls, an extern callee, recursion, and one
/// alias class shared by two functions (set_a's a and set_b's b both
/// flow into g_shared).
const char *GoldenProgram = R"(
int *g_shared;
void sysutil_free(void *p);
int fact(int n) {
  if (n <= 1) {
    return 1;
  }
  return n + fact(n - 1);
}
void set_a(void) {
  int a;
  g_shared = &a;
}
void set_b(void) {
  int b;
  g_shared = &b;
}
int leaf(int x) {
  sysutil_free((void*)g_shared);
  return x + 1;
}
int mid(int x) MIX(symbolic) {
  if (x != 0) {
    return leaf(x);
  }
  return fact(x);
}
int main(void) {
  set_a();
  set_b();
  return mid(3);
}
)";

TEST(ClosureHashTest, GoldenHashesAreStable) {
  // Persisted block keys embed these hashes, so a change to how they are
  // derived silently turns every existing cache into misses. The values
  // are the ones existing caches were written with; the edges mirror
  // what MIXY derives for the program (call graph plus the set_a/set_b
  // alias class).
  c::CAstContext Ctx;
  DiagnosticEngine Diags;
  const c::CProgram *P = c::parseC(GoldenProgram, Ctx, Diags);
  ASSERT_NE(P, nullptr) << Diags.str();
  std::map<std::string, const c::CFuncDecl *> ByName;
  FuncMap Content;
  for (const c::CFuncDecl *F : P->Funcs) {
    ByName[F->name()] = F;
    if (F->isDefined())
      Content[F] = functionContentHash(*F);
  }
  auto Edges = [&](std::initializer_list<const char *> Names) {
    std::vector<const c::CFuncDecl *> Out;
    for (const char *Name : Names)
      Out.push_back(ByName.at(Name));
    return Out;
  };
  DepMap Deps;
  Deps[ByName.at("fact")] = Edges({"fact"});
  Deps[ByName.at("set_a")] = Edges({"set_b"});
  Deps[ByName.at("set_b")] = Edges({"set_a"});
  Deps[ByName.at("leaf")] = Edges({"sysutil_free"});
  Deps[ByName.at("mid")] = Edges({"leaf", "fact"});
  Deps[ByName.at("main")] = Edges({"set_a", "set_b", "mid"});

  FuncMap Closure = closureHashes(Content, Deps, environmentHash(*P));
  std::map<std::string, uint64_t> ByNameHash;
  for (const auto &[F, Hash] : Closure)
    ByNameHash[F->name()] = Hash;
  const std::map<std::string, uint64_t> Expected = {
      {"fact", 0x85c98e0568339aa5ull},
      {"leaf", 0xcae58a3acd60d850ull},
      {"main", 0x18e8ebcd8c32fa1bull},
      {"mid", 0x5930ac3706c8ac29ull},
      {"set_a", 0x9da1b9bceb7908b0ull},
      {"set_b", 0x9da1b9bceb7908b0ull},
  };
  EXPECT_EQ(ByNameHash, Expected);
}

} // namespace
