//===--- bench_observe.cpp - Observability overhead guard -------------------===//
//
// Part of the Mix reproduction of "Mixing Type Checking and Symbolic
// Execution" (PLDI 2010).
//
// Guards the overhead contract from DESIGN.md section 10: a detached
// (null) metrics handle or trace sink must cost one predictable branch
// per instrumentation site, so the instrumented analyses run at seed
// speed when no --trace/--metrics is requested. The attached variants are
// benchmarked alongside so a regression in either direction is visible.
//
//===----------------------------------------------------------------------===//

#include "BenchReport.h"

#include "cfront/CParser.h"
#include "mixy/Mixy.h"
#include "mixy/VsftpdMini.h"
#include "observe/Metrics.h"
#include "observe/Phase.h"
#include "observe/Trace.h"
#include "provenance/Provenance.h"

#include <benchmark/benchmark.h>

#include <optional>

using namespace mix::c;
using mix::DiagnosticEngine;
namespace obs = mix::obs;
namespace prov = mix::prov;

namespace {

//===----------------------------------------------------------------------===//
// Micro: the per-site cost of detached vs attached handles.
//===----------------------------------------------------------------------===//

void BM_Counter_Detached(benchmark::State &State) {
  obs::Counter C; // null handle: add() is a branch
  for (auto _ : State) {
    C.inc();
    benchmark::DoNotOptimize(C);
  }
}

void BM_Counter_Attached(benchmark::State &State) {
  obs::MetricsRegistry Reg;
  obs::Counter C = Reg.counter("bench.count");
  for (auto _ : State) {
    C.inc();
    benchmark::DoNotOptimize(C);
  }
}

void BM_Histogram_Detached(benchmark::State &State) {
  obs::Histogram H;
  uint64_t V = 0;
  for (auto _ : State) {
    H.record(++V);
    benchmark::DoNotOptimize(H);
  }
}

void BM_Histogram_Attached(benchmark::State &State) {
  obs::MetricsRegistry Reg;
  obs::Histogram H = Reg.histogram("bench.lat");
  uint64_t V = 0;
  for (auto _ : State) {
    H.record(++V);
    benchmark::DoNotOptimize(H);
  }
}

void BM_PhaseTimer_Detached(benchmark::State &State) {
  // Null telemetry context: constructor and destructor are one branch
  // each, no clock reads — the state every CLI run without --stats or
  // --profile is in.
  for (auto _ : State) {
    obs::PhaseTimer Timer(nullptr, obs::Phase::BlockExec);
    benchmark::DoNotOptimize(Timer);
  }
}

void BM_PhaseTimer_Attached(benchmark::State &State) {
  obs::RequestTelemetry T;
  for (auto _ : State) {
    obs::PhaseTimer Timer(&T, obs::Phase::BlockExec);
    benchmark::DoNotOptimize(Timer);
  }
  State.counters["block_exec_us"] =
      (double)T.phaseUs(obs::Phase::BlockExec);
}

void BM_PhaseTimer_AttachedWithSpans(benchmark::State &State) {
  obs::TraceSink Sink;
  obs::RequestTelemetry T;
  T.enableSpans(Sink.epoch());
  for (auto _ : State) {
    obs::PhaseTimer Timer(&T, obs::Phase::BlockExec);
    benchmark::DoNotOptimize(Timer);
  }
  State.counters["events"] = (double)(T.sink() ? T.sink()->eventCount() : 0);
}

void BM_TraceSpan_NullSink(benchmark::State &State) {
  for (auto _ : State) {
    obs::TraceSpan Span(nullptr, "bench.span", "bench");
    benchmark::DoNotOptimize(Span);
  }
}

void BM_TraceSpan_LiveSink(benchmark::State &State) {
  // A fresh sink every Batch spans, swapped outside the timed region, so
  // the timing holds the span's cost and not the copies an ever-growing
  // event vector makes as it reallocates.
  constexpr size_t Batch = 1024;
  std::optional<obs::TraceSink> Sink;
  Sink.emplace();
  size_t InBatch = 0, Events = 0;
  for (auto _ : State) {
    if (InBatch == Batch) {
      State.PauseTiming();
      Events += Sink->eventCount();
      Sink.emplace();
      InBatch = 0;
      State.ResumeTiming();
    }
    obs::TraceSpan Span(&*Sink, "bench.span", "bench");
    benchmark::DoNotOptimize(Span);
    ++InBatch;
  }
  State.counters["events"] = (double)(Events + Sink->eventCount());
}

//===----------------------------------------------------------------------===//
// Macro: a full MIXY case-study run with instrumentation off / on. The
// "Off" variant is the configuration every untraced CLI run uses and is
// the one the <2% regression budget applies to.
//===----------------------------------------------------------------------===//

void runCase(benchmark::State &State, bool Metrics, bool Trace,
             bool Explain = false, bool Telemetry = false) {
  std::string Source = corpus::vsftpdCase(2, true);
  for (auto _ : State) {
    CAstContext Ctx;
    DiagnosticEngine Diags;
    const CProgram *P = parseC(Source, Ctx, Diags);
    obs::MetricsRegistry Reg;
    obs::TraceSink Sink;
    prov::ProvenanceSink Prov;
    obs::RequestTelemetry T;
    MixyOptions Opts;
    if (Metrics)
      Opts.Metrics = &Reg;
    if (Trace)
      Opts.Trace = &Sink;
    if (Explain)
      Opts.Prov = &Prov;
    if (Telemetry)
      Opts.Telemetry = &T;
    MixyAnalysis Analysis(*P, Ctx, Diags, Opts);
    benchmark::DoNotOptimize(Analysis.run(MixyAnalysis::StartMode::Typed));
  }
}

void BM_Mixy_ObservabilityOff(benchmark::State &State) {
  runCase(State, false, false);
}
void BM_Mixy_MetricsOn(benchmark::State &State) { runCase(State, true, false); }
void BM_Mixy_MetricsAndTraceOn(benchmark::State &State) {
  runCase(State, true, true);
}
// The provenance sink follows the same null-handle contract: the default
// (detached) run above doubles as the explain-off baseline, and this
// variant shows what recording witness paths / flow chains / block
// contexts costs when --explain or --format=sarif asks for them.
void BM_Mixy_ProvenanceOn(benchmark::State &State) {
  runCase(State, true, false, /*Explain=*/true);
}
// Per-request phase attribution on top of metrics — the daemon's default
// request configuration (spans stay off unless the request traces).
void BM_Mixy_TelemetryOn(benchmark::State &State) {
  runCase(State, true, false, /*Explain=*/false, /*Telemetry=*/true);
}

} // namespace

BENCHMARK(BM_Counter_Detached);
BENCHMARK(BM_Counter_Attached);
BENCHMARK(BM_Histogram_Detached);
BENCHMARK(BM_Histogram_Attached);
BENCHMARK(BM_PhaseTimer_Detached);
BENCHMARK(BM_PhaseTimer_Attached);
BENCHMARK(BM_PhaseTimer_AttachedWithSpans);
BENCHMARK(BM_TraceSpan_NullSink);
BENCHMARK(BM_TraceSpan_LiveSink);
BENCHMARK(BM_Mixy_ObservabilityOff);
BENCHMARK(BM_Mixy_MetricsOn);
BENCHMARK(BM_Mixy_MetricsAndTraceOn);
BENCHMARK(BM_Mixy_ProvenanceOn);
BENCHMARK(BM_Mixy_TelemetryOn);

MIX_BENCH_MAIN(observe)
