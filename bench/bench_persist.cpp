//===--- bench_persist.cpp - Cold vs. warm persistent-cache runs ------------===//
//
// Part of the Mix reproduction of "Mixing Type Checking and Symbolic
// Execution" (PLDI 2010).
//
// Measures the persistent analysis cache (src/persist/): a cold run
// pays full symbolic execution and solver cost and fills the cache; a
// warm run on the unchanged program answers block summaries and solver
// queries from disk. The gap between BM_Mixy_Cold and BM_Mixy_Warm is
// what --cache-dir buys a re-run; BM_Mixy_NoCache is the baseline
// without any persistence plumbing at all.
//
//===----------------------------------------------------------------------===//

#include "BenchReport.h"

#include "cfront/CParser.h"
#include "mixy/Mixy.h"
#include "mixy/VsftpdMini.h"
#include "persist/PersistSession.h"

#include <benchmark/benchmark.h>

#include <filesystem>
#include <memory>
#include <string>

using namespace mix;
using namespace mix::c;

namespace {

std::string benchDir(const std::string &Tag) {
  std::string Dir =
      (std::filesystem::temp_directory_path() / ("mix_bench_persist_" + Tag))
          .string();
  return Dir;
}

unsigned analyzeOnce(const std::string &Source, const std::string &Dir,
                     obs::MetricsRegistry *Reg) {
  CAstContext Ctx;
  DiagnosticEngine Diags;
  const CProgram *P = parseC(Source, Ctx, Diags);
  MixyOptions Opts;
  Opts.Metrics = Reg;
  std::unique_ptr<persist::PersistSession> Session;
  if (!Dir.empty()) {
    persist::PersistOptions PO;
    PO.Dir = Dir;
    PO.Incremental = true;
    PO.BlockFingerprint = mixyPersistFingerprint(Opts);
    PO.Metrics = Reg;
    Session = std::make_unique<persist::PersistSession>(std::move(PO));
    Opts.Persist = Session.get();
  }
  MixyAnalysis Analysis(*P, Ctx, Diags, Opts);
  unsigned W = Analysis.run(MixyAnalysis::StartMode::Typed, "filler_main");
  if (Session)
    Session->save(nullptr);
  return W;
}

std::string scaledSource(benchmark::State &State) {
  return corpus::vsftpdScaled(/*Annotated=*/true,
                              /*Modules=*/(unsigned)State.range(0),
                              /*Symbolic=*/(unsigned)State.range(0) / 2);
}

/// Baseline: no persistence at all.
void BM_Mixy_NoCache(benchmark::State &State) {
  std::string Source = scaledSource(State);
  for (auto _ : State)
    benchmark::DoNotOptimize(analyzeOnce(Source, "", nullptr));
}

/// Cold: every iteration starts from an empty cache directory and pays
/// the fill + save cost on top of the full analysis.
void BM_Mixy_Cold(benchmark::State &State) {
  std::string Source = scaledSource(State);
  std::string Dir = benchDir("cold" + std::to_string(State.range(0)));
  for (auto _ : State) {
    std::filesystem::remove_all(Dir);
    benchmark::DoNotOptimize(analyzeOnce(Source, Dir, nullptr));
  }
  std::filesystem::remove_all(Dir);
}

/// A warm run of \p Source against a cache directory pre-filled once
/// outside the timed loop: every iteration replays block summaries from
/// disk.
void runWarm(benchmark::State &State, const std::string &Source,
             const std::string &Tag) {
  std::string Dir = benchDir(Tag + std::to_string(State.range(0)));
  std::filesystem::remove_all(Dir);
  analyzeOnce(Source, Dir, nullptr); // fill
  uint64_t Hits = 0, Misses = 0;
  for (auto _ : State) {
    obs::MetricsRegistry Reg;
    benchmark::DoNotOptimize(analyzeOnce(Source, Dir, &Reg));
    Hits = Reg.counterValue("persist.block.hits");
    Misses = Reg.counterValue("persist.block.misses");
  }
  State.counters["block_hits"] = (double)Hits;
  State.counters["block_misses"] = (double)Misses;
  std::filesystem::remove_all(Dir);
}

void BM_Mixy_Warm(benchmark::State &State) {
  runWarm(State, scaledSource(State), "warm");
}

/// Warm runs over growing module counts with no symbolic filler: the
/// replayed block work stays constant, so this axis shows how the
/// per-run bookkeeping (qualifier inference, content and
/// dependency-closure hashes) scales with program size.
void BM_Mixy_WarmScaled(benchmark::State &State) {
  runWarm(State,
          corpus::vsftpdScaled(/*Annotated=*/true,
                               /*Modules=*/(unsigned)State.range(0),
                               /*Symbolic=*/0),
          "warmscaled");
}

} // namespace

BENCHMARK(BM_Mixy_NoCache)->Arg(2)->Arg(6)->Arg(12)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Mixy_Cold)->Arg(2)->Arg(6)->Arg(12)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Mixy_Warm)->Arg(2)->Arg(6)->Arg(12)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Mixy_WarmScaled)
    ->Arg(25)
    ->Arg(50)
    ->Arg(100)
    ->Arg(200)
    ->Unit(benchmark::kMillisecond);

MIX_BENCH_MAIN(persist)
