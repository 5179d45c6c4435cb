//===--- ObserveTest.cpp - Tests for the observability subsystem ----------===//
//
// Part of the Mix reproduction of "Mixing Type Checking and Symbolic
// Execution" (PLDI 2010).
//
// Covers the contracts DESIGN.md section 10 promises: exact counter
// totals under concurrent increments, detached (null) handles as no-ops,
// Chrome-trace JSON that a strict parser accepts with the expected
// event structure, and the solver's own counters and spans (SAT search
// work, stack epochs, one span per stack query).
//
//===----------------------------------------------------------------------===//

#include "observe/Metrics.h"
#include "observe/Phase.h"
#include "observe/Trace.h"
#include "solver/AssertionStack.h"
#include "solver/SmtSolver.h"

#include "TestJson.h"

#include <gtest/gtest.h>

#include <chrono>
#include <thread>
#include <vector>

using namespace mix::obs;

namespace {

//===----------------------------------------------------------------------===//
// Counters
//===----------------------------------------------------------------------===//

TEST(MetricsTest, CounterBasics) {
  MetricsRegistry Reg;
  Counter C = Reg.counter("test.count");
  EXPECT_EQ(C.value(), 0u);
  C.inc();
  C.add(41);
  EXPECT_EQ(C.value(), 42u);
  EXPECT_EQ(Reg.counterValue("test.count"), 42u);
}

TEST(MetricsTest, CounterInterning) {
  MetricsRegistry Reg;
  Counter A = Reg.counter("shared");
  Counter B = Reg.counter("shared");
  A.add(10);
  B.add(5);
  EXPECT_EQ(Reg.counterValue("shared"), 15u);
}

TEST(MetricsTest, UnregisteredCounterReadsZero) {
  MetricsRegistry Reg;
  EXPECT_EQ(Reg.counterValue("never.registered"), 0u);
  EXPECT_EQ(Reg.histogramSnapshot("never.registered").Count, 0u);
}

TEST(MetricsTest, DetachedHandlesAreNoOps) {
  Counter C;
  EXPECT_FALSE(C);
  C.inc();
  C.add(100);
  EXPECT_EQ(C.value(), 0u);

  Histogram H;
  EXPECT_FALSE(H);
  H.record(123);
  EXPECT_EQ(H.snapshot().Count, 0u);
}

// The headline concurrency contract: N threads doing relaxed sharded
// increments must still sum to the exact total at the join barrier.
TEST(MetricsTest, CounterExactUnderEightThreads) {
  MetricsRegistry Reg;
  Counter C = Reg.counter("mt.count");
  constexpr unsigned Threads = 8;
  constexpr uint64_t PerThread = 100000;
  std::vector<std::thread> Workers;
  for (unsigned T = 0; T != Threads; ++T)
    Workers.emplace_back([&C] {
      for (uint64_t I = 0; I != PerThread; ++I)
        C.inc();
    });
  for (std::thread &W : Workers)
    W.join();
  EXPECT_EQ(C.value(), Threads * PerThread);
}

TEST(MetricsTest, CountersListedSorted) {
  MetricsRegistry Reg;
  Reg.counter("zebra").inc();
  Reg.counter("alpha").add(2);
  auto All = Reg.counters();
  ASSERT_EQ(All.size(), 2u);
  EXPECT_EQ(All[0].first, "alpha");
  EXPECT_EQ(All[0].second, 2u);
  EXPECT_EQ(All[1].first, "zebra");
  EXPECT_EQ(All[1].second, 1u);
}

//===----------------------------------------------------------------------===//
// Histograms
//===----------------------------------------------------------------------===//

TEST(MetricsTest, HistogramSnapshot) {
  MetricsRegistry Reg;
  Histogram H = Reg.histogram("lat");
  H.record(1);
  H.record(10);
  H.record(100);
  HistogramSnapshot S = H.snapshot();
  EXPECT_EQ(S.Count, 3u);
  EXPECT_EQ(S.Sum, 111u);
  EXPECT_EQ(S.Min, 1u);
  EXPECT_EQ(S.Max, 100u);
}

TEST(MetricsTest, HistogramBucketing) {
  EXPECT_EQ(Histogram::bucketOf(0), 0u);
  EXPECT_EQ(Histogram::bucketOf(1), 0u);
  EXPECT_EQ(Histogram::bucketOf(2), 1u);
  EXPECT_EQ(Histogram::bucketOf(3), 1u);
  EXPECT_EQ(Histogram::bucketOf(4), 2u);
  EXPECT_EQ(Histogram::bucketOf(1024), 10u);
  // Huge values clamp to the last bucket instead of indexing out of range.
  EXPECT_EQ(Histogram::bucketOf(UINT64_MAX), mix::obs::detail::HistogramBuckets - 1);
}

TEST(MetricsTest, HistogramExactUnderThreads) {
  MetricsRegistry Reg;
  Histogram H = Reg.histogram("mt.lat");
  constexpr unsigned Threads = 8;
  constexpr uint64_t PerThread = 20000;
  std::vector<std::thread> Workers;
  for (unsigned T = 0; T != Threads; ++T)
    Workers.emplace_back([&H, T] {
      for (uint64_t I = 0; I != PerThread; ++I)
        H.record(T + 1);
    });
  for (std::thread &W : Workers)
    W.join();
  HistogramSnapshot S = H.snapshot();
  EXPECT_EQ(S.Count, Threads * PerThread);
  // Sum of (T+1) * PerThread for T in [0, 8) = 36 * PerThread.
  EXPECT_EQ(S.Sum, 36 * PerThread);
  EXPECT_EQ(S.Min, 1u);
  EXPECT_EQ(S.Max, 8u);
}

//===----------------------------------------------------------------------===//
// Quantile estimation
//===----------------------------------------------------------------------===//

TEST(MetricsTest, QuantileEmptyIsZero) {
  HistogramSnapshot S;
  EXPECT_EQ(S.quantile(0.5), 0.0);
  EXPECT_EQ(S.quantile(0.99), 0.0);
}

TEST(MetricsTest, QuantileClampsToSingleValue) {
  // Every quantile of a one-value distribution is that value: the
  // estimate interpolates inside the log2 bucket, but the clamp to the
  // observed [Min, Max] collapses it.
  MetricsRegistry Reg;
  Histogram H = Reg.histogram("q");
  for (int I = 0; I != 5; ++I)
    H.record(7);
  HistogramSnapshot S = H.snapshot();
  EXPECT_EQ(S.quantile(0.0), 7.0);
  EXPECT_EQ(S.quantile(0.5), 7.0);
  EXPECT_EQ(S.quantile(0.99), 7.0);
}

TEST(MetricsTest, QuantileUniformOnes) {
  // 100 samples of 1 land in bucket 0 ([0, 2)); interpolation says 1.0
  // at p50 and the Min clamp pins every other quantile to 1 as well.
  MetricsRegistry Reg;
  Histogram H = Reg.histogram("q");
  for (int I = 0; I != 100; ++I)
    H.record(1);
  HistogramSnapshot S = H.snapshot();
  EXPECT_DOUBLE_EQ(S.quantile(0.5), 1.0);
  EXPECT_DOUBLE_EQ(S.quantile(0.99), 1.0);
}

TEST(MetricsTest, QuantileBimodalWithinBucketBounds) {
  // 90 x 1 and 10 x 1000: p50 must land in the low bucket (error bounded
  // by its [1, 2) width after clamping) and p99 in 1000's bucket
  // ([512, 1024), clamped above by Max = 1000).
  MetricsRegistry Reg;
  Histogram H = Reg.histogram("q");
  for (int I = 0; I != 90; ++I)
    H.record(1);
  for (int I = 0; I != 10; ++I)
    H.record(1000);
  HistogramSnapshot S = H.snapshot();
  double P50 = S.quantile(0.5);
  EXPECT_GE(P50, 1.0);
  EXPECT_LT(P50, 2.0);
  double P99 = S.quantile(0.99);
  EXPECT_GE(P99, 512.0);
  EXPECT_LE(P99, 1000.0);
}

TEST(MetricsTest, QuantilesMonotone) {
  MetricsRegistry Reg;
  Histogram H = Reg.histogram("q");
  for (uint64_t V = 1; V <= 1000; ++V)
    H.record(V);
  HistogramSnapshot S = H.snapshot();
  EXPECT_LE(S.quantile(0.5), S.quantile(0.9));
  EXPECT_LE(S.quantile(0.9), S.quantile(0.99));
  EXPECT_GE(S.quantile(0.5), (double)S.Min);
  EXPECT_LE(S.quantile(0.99), (double)S.Max);
}

//===----------------------------------------------------------------------===//
// OpenMetrics exposition
//===----------------------------------------------------------------------===//

TEST(MetricsTest, OpenMetricsGolden) {
  MetricsRegistry Reg;
  Reg.counter("service.requests").add(3);
  Histogram H = Reg.histogram("req.us");
  H.record(1);
  H.record(1);
  H.record(3);
  H.record(1000);

  std::string Text = Reg.renderOpenMetrics();
  // Counter: TYPE line plus the _total series, name sanitized to
  // underscores with the mix_ prefix.
  EXPECT_NE(Text.find("# TYPE mix_service_requests counter\n"),
            std::string::npos);
  EXPECT_NE(Text.find("mix_service_requests_total 3\n"), std::string::npos);
  // Histogram: cumulative buckets with power-of-two upper bounds
  // (1,1 -> le=2; 3 -> le=4; 1000 -> le=1024), then +Inf/_sum/_count.
  EXPECT_NE(Text.find("# TYPE mix_req_us histogram\n"), std::string::npos);
  EXPECT_NE(Text.find("mix_req_us_bucket{le=\"2\"} 2\n"), std::string::npos);
  EXPECT_NE(Text.find("mix_req_us_bucket{le=\"4\"} 3\n"), std::string::npos);
  EXPECT_NE(Text.find("mix_req_us_bucket{le=\"1024\"} 4\n"),
            std::string::npos);
  EXPECT_NE(Text.find("mix_req_us_bucket{le=\"+Inf\"} 4\n"),
            std::string::npos);
  EXPECT_NE(Text.find("mix_req_us_sum 1005\n"), std::string::npos);
  EXPECT_NE(Text.find("mix_req_us_count 4\n"), std::string::npos);
  // Quantile gauges exist for every histogram.
  EXPECT_NE(Text.find("# TYPE mix_req_us_p50 gauge\n"), std::string::npos);
  EXPECT_NE(Text.find("mix_req_us_p90 "), std::string::npos);
  EXPECT_NE(Text.find("mix_req_us_p99 "), std::string::npos);
  // The exposition terminator is the last line.
  ASSERT_GE(Text.size(), 6u);
  EXPECT_EQ(Text.substr(Text.size() - 6), "# EOF\n");
}

TEST(MetricsTest, OpenMetricsEmptyRegistryIsJustEOF) {
  MetricsRegistry Reg;
  EXPECT_EQ(Reg.renderOpenMetrics(), "# EOF\n");
}

TEST(MetricsTest, OpenMetricsSanitizesNames) {
  MetricsRegistry Reg;
  Reg.counter("ir.lower.fastpath.hits").inc();
  std::string Text = Reg.renderOpenMetrics();
  EXPECT_NE(Text.find("mix_ir_lower_fastpath_hits_total 1\n"),
            std::string::npos);
  EXPECT_EQ(Text.find("ir.lower"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// Registry rendering
//===----------------------------------------------------------------------===//

TEST(MetricsTest, RenderTextSortedPairs) {
  MetricsRegistry Reg;
  Reg.counter("b.count").add(2);
  Reg.counter("a.count").add(1);
  std::string Text = Reg.renderText();
  size_t A = Text.find("a.count = 1");
  size_t B = Text.find("b.count = 2");
  EXPECT_NE(A, std::string::npos);
  EXPECT_NE(B, std::string::npos);
  EXPECT_LT(A, B);
}

TEST(MetricsTest, RenderJSONWellFormed) {
  MetricsRegistry Reg;
  Reg.counter("solver.queries").add(7);
  Histogram H = Reg.histogram("solver.query_us");
  H.record(3);
  H.record(9);

  testjson::Value Doc;
  std::string Error;
  ASSERT_TRUE(testjson::parseDocument(Reg.renderJSON(), Doc, &Error)) << Error;
  ASSERT_TRUE(Doc.isObject());
  ASSERT_TRUE(Doc.has("counters"));
  EXPECT_EQ(Doc["counters"]["solver.queries"].Num, 7);
  ASSERT_TRUE(Doc.has("histograms"));
  const testjson::Value &Lat = Doc["histograms"]["solver.query_us"];
  ASSERT_TRUE(Lat.isObject());
  EXPECT_EQ(Lat["count"].Num, 2);
  EXPECT_EQ(Lat["sum"].Num, 12);
  EXPECT_EQ(Lat["min"].Num, 3);
  EXPECT_EQ(Lat["max"].Num, 9);
}

//===----------------------------------------------------------------------===//
// Trace sink
//===----------------------------------------------------------------------===//

TEST(TraceTest, NullSinkSpanIsSafe) {
  // The library-wide off switch: spans and instants on a null sink must
  // be no-ops (this is how every instrumentation site runs untraced).
  TraceSpan Span(nullptr, "noop", "test");
  Span.setArgs("{\"k\": 1}");
  // Destructor runs at scope exit; nothing to assert beyond not crashing.
}

TEST(TraceTest, EventsRecorded) {
  TraceSink Sink;
  Sink.nameCurrentThread("tester");
  Sink.instant("marker", "test");
  {
    TraceSpan Span(&Sink, "phase", "test");
  }
  EXPECT_EQ(Sink.eventCount(), 3u);
}

TEST(TraceTest, RenderJSONWellFormed) {
  TraceSink Sink;
  Sink.nameCurrentThread("main");
  {
    TraceSpan Outer(&Sink, "outer", "test");
    Sink.instant("tick", "test", "{\"n\": 1}");
    TraceSpan Inner(&Sink, "inner", "test");
  }

  testjson::Value Doc;
  std::string Error;
  ASSERT_TRUE(testjson::parseDocument(Sink.renderJSON(), Doc, &Error)) << Error;
  ASSERT_TRUE(Doc.isObject());
  ASSERT_TRUE(Doc["traceEvents"].isArray());
  const testjson::Value &Events = Doc["traceEvents"];
  ASSERT_EQ(Events.size(), 4u);

  const testjson::Value *Meta = nullptr, *Tick = nullptr, *Outer = nullptr,
                        *Inner = nullptr;
  for (size_t I = 0; I != Events.size(); ++I) {
    const testjson::Value &E = Events[I];
    ASSERT_TRUE(E.isObject());
    ASSERT_TRUE(E.has("name"));
    ASSERT_TRUE(E.has("ph"));
    if (E["name"].Str == "thread_name")
      Meta = &E;
    else if (E["name"].Str == "tick")
      Tick = &E;
    else if (E["name"].Str == "outer")
      Outer = &E;
    else if (E["name"].Str == "inner")
      Inner = &E;
  }
  ASSERT_NE(Meta, nullptr);
  ASSERT_NE(Tick, nullptr);
  ASSERT_NE(Outer, nullptr);
  ASSERT_NE(Inner, nullptr);

  EXPECT_EQ((*Meta)["ph"].Str, "M");
  EXPECT_EQ((*Meta)["args"]["name"].Str, "main");
  EXPECT_EQ((*Tick)["ph"].Str, "i");
  EXPECT_EQ((*Tick)["args"]["n"].Num, 1);
  EXPECT_EQ((*Outer)["ph"].Str, "X");
  EXPECT_EQ((*Inner)["ph"].Str, "X");

  // Span nesting: the inner span's [ts, ts+dur) interval must lie inside
  // the outer one's (both were open simultaneously on this thread).
  double OutStart = (*Outer)["ts"].Num, OutEnd = OutStart + (*Outer)["dur"].Num;
  double InStart = (*Inner)["ts"].Num, InEnd = InStart + (*Inner)["dur"].Num;
  EXPECT_GE(InStart, OutStart);
  EXPECT_LE(InEnd, OutEnd);
  EXPECT_EQ((*Outer)["tid"].Num, (*Inner)["tid"].Num);
}

TEST(TraceTest, EventsSortedByTimestamp) {
  TraceSink Sink;
  for (int I = 0; I != 20; ++I)
    Sink.instant("e", "test");
  testjson::Value Doc;
  std::string Error;
  ASSERT_TRUE(testjson::parseDocument(Sink.renderJSON(), Doc, &Error)) << Error;
  const testjson::Value &Events = Doc["traceEvents"];
  double Prev = -1;
  for (size_t I = 0; I != Events.size(); ++I) {
    EXPECT_GE(Events[I]["ts"].Num, Prev);
    Prev = Events[I]["ts"].Num;
  }
}

TEST(TraceTest, ConcurrentRecordingKeepsEveryEvent) {
  TraceSink Sink;
  constexpr unsigned Threads = 8;
  constexpr unsigned PerThread = 2000;
  std::vector<std::thread> Workers;
  for (unsigned T = 0; T != Threads; ++T)
    Workers.emplace_back([&Sink] {
      for (unsigned I = 0; I != PerThread; ++I)
        Sink.instant("e", "mt");
    });
  for (std::thread &W : Workers)
    W.join();
  EXPECT_EQ(Sink.eventCount(), Threads * PerThread);
  testjson::Value Doc;
  std::string Error;
  ASSERT_TRUE(testjson::parseDocument(Sink.renderJSON(), Doc, &Error)) << Error;
  EXPECT_EQ(Doc["traceEvents"].size(), Threads * PerThread);
}

TEST(TraceTest, ArgsEscapedStringsSurvive) {
  TraceSink Sink;
  Sink.instant("quoted", "test", "{\"s\": \"a \\\"b\\\" c\"}");
  testjson::Value Doc;
  std::string Error;
  ASSERT_TRUE(testjson::parseDocument(Sink.renderJSON(), Doc, &Error)) << Error;
  EXPECT_EQ(Doc["traceEvents"][0]["args"]["s"].Str, "a \"b\" c");
}

//===----------------------------------------------------------------------===//
// Request telemetry: phase timers and per-request span sinks
//===----------------------------------------------------------------------===//

TEST(PhaseTest, NullTelemetryTimerIsSafe) {
  // The off switch matches counters and trace sinks: a null context makes
  // the timer's constructor and destructor each one branch, no clocks.
  PhaseTimer Timer(nullptr, Phase::Solver);
}

TEST(PhaseTest, TimerAccumulatesIntoPhase) {
  RequestTelemetry T;
  EXPECT_EQ(T.phaseUs(Phase::BlockExec), 0u);
  {
    PhaseTimer Timer(&T, Phase::BlockExec);
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_GE(T.phaseUs(Phase::BlockExec), 1000u);
  EXPECT_EQ(T.phaseUs(Phase::Solver), 0u);
}

TEST(PhaseTest, AddPhaseIsExactAcrossThreads) {
  RequestTelemetry T;
  constexpr unsigned Threads = 8;
  constexpr uint64_t PerThread = 10000;
  std::vector<std::thread> Workers;
  for (unsigned W = 0; W != Threads; ++W)
    Workers.emplace_back([&T] {
      for (uint64_t I = 0; I != PerThread; ++I)
        T.addPhase(Phase::Fixpoint, 1);
    });
  for (std::thread &W : Workers)
    W.join();
  EXPECT_EQ(T.phaseUs(Phase::Fixpoint), Threads * PerThread);
}

TEST(PhaseTest, PhaseNamesStable) {
  EXPECT_STREQ(phaseName(Phase::Parse), "parse");
  EXPECT_STREQ(phaseName(Phase::Typecheck), "typecheck");
  EXPECT_STREQ(phaseName(Phase::Fixpoint), "fixpoint");
  EXPECT_STREQ(phaseName(Phase::BlockExec), "block-exec");
  EXPECT_STREQ(phaseName(Phase::IrLower), "ir-lower");
  EXPECT_STREQ(phaseName(Phase::Solver), "solver");
  EXPECT_STREQ(phaseName(Phase::Render), "render");
  EXPECT_STREQ(phaseSpanName(Phase::Solver), "phase.solver");
}

TEST(PhaseTest, TimerEmitsSpanWhenEnabled) {
  TraceSink Global;
  RequestTelemetry T;
  EXPECT_EQ(T.sink(), nullptr);
  T.enableSpans(Global.epoch());
  ASSERT_NE(T.sink(), nullptr);
  {
    PhaseTimer Timer(&T, Phase::Parse);
  }
  std::vector<TraceEvent> Events = T.sink()->snapshotEvents();
  ASSERT_EQ(Events.size(), 1u);
  EXPECT_EQ(Events[0].Name, "phase.parse");
  EXPECT_EQ(Events[0].Cat, "phase");
  EXPECT_EQ(Events[0].Ph, TracePhase::Complete);
}

TEST(TraceTest, ImportPreservesEventsAndTimebase) {
  // The daemon pattern: a request-scoped sink shares the global sink's
  // epoch, so folding its events back keeps the timestamps comparable.
  TraceSink Global;
  {
    TraceSpan Span(&Global, "global.before", "test");
  }
  TraceSink Request(Global.epoch());
  {
    TraceSpan Span(&Request, "request.span", "test");
  }
  std::vector<TraceEvent> Snapshot = Request.snapshotEvents();
  ASSERT_EQ(Snapshot.size(), 1u);
  Global.import(Snapshot);
  EXPECT_EQ(Global.eventCount(), 2u);
  bool Found = false;
  for (const TraceEvent &E : Global.snapshotEvents())
    if (E.Name == "request.span") {
      Found = true;
      EXPECT_EQ(E.Ts, Snapshot[0].Ts);
      EXPECT_EQ(E.Tid, Snapshot[0].Tid);
    }
  EXPECT_TRUE(Found);
}

//===----------------------------------------------------------------------===//
// Speedscope rendering
//===----------------------------------------------------------------------===//

TEST(TraceTest, SpeedscopeWellFormed) {
  TraceSink Sink;
  {
    TraceSpan Outer(&Sink, "outer", "phase");
    Sink.instant("marker", "test"); // instants must not become frames
    { TraceSpan Inner(&Sink, "inner", "phase"); }
  }

  testjson::Value Doc;
  std::string Error;
  ASSERT_TRUE(
      testjson::parseDocument(Sink.renderSpeedscope("unit"), Doc, &Error))
      << Error;
  ASSERT_TRUE(Doc.isObject());
  EXPECT_EQ(Doc["$schema"].Str,
            "https://www.speedscope.app/file-format-schema.json");
  EXPECT_EQ(Doc["name"].Str, "unit");

  // Frames: deduplicated span names, sorted — "inner" before "outer".
  const testjson::Value &Frames = Doc["shared"]["frames"];
  ASSERT_EQ(Frames.size(), 2u);
  EXPECT_EQ(Frames[0]["name"].Str, "inner");
  EXPECT_EQ(Frames[1]["name"].Str, "outer");

  // One evented profile (single thread), microsecond unit, O/C events
  // balanced and the stack never negative.
  const testjson::Value &Profiles = Doc["profiles"];
  ASSERT_EQ(Profiles.size(), 1u);
  const testjson::Value &P = Profiles[0];
  EXPECT_EQ(P["type"].Str, "evented");
  EXPECT_EQ(P["unit"].Str, "microseconds");
  const testjson::Value &Events = P["events"];
  ASSERT_EQ(Events.size(), 4u);
  int Depth = 0;
  double LastAt = 0;
  for (size_t I = 0; I != Events.size(); ++I) {
    const testjson::Value &E = Events[I];
    EXPECT_GE(E["at"].Num, LastAt);
    LastAt = E["at"].Num;
    Depth += E["type"].Str == "O" ? 1 : -1;
    EXPECT_GE(Depth, 0);
  }
  EXPECT_EQ(Depth, 0);
  EXPECT_GE(P["endValue"].Num, LastAt);
}

TEST(TraceTest, SpeedscopeEmptySinkParses) {
  TraceSink Sink;
  testjson::Value Doc;
  std::string Error;
  ASSERT_TRUE(testjson::parseDocument(Sink.renderSpeedscope(), Doc, &Error))
      << Error;
  EXPECT_EQ(Doc["shared"]["frames"].size(), 0u);
  EXPECT_EQ(Doc["profiles"].size(), 0u);
}

TEST(ThreadSlotTest, StableWithinThreadDistinctAcross) {
  unsigned Main = threadSlot();
  EXPECT_EQ(threadSlot(), Main);
  unsigned Other = Main;
  std::thread([&Other] { Other = threadSlot(); }).join();
  EXPECT_NE(Other, Main);
}

//===----------------------------------------------------------------------===//
// Solver instrumentation
//===----------------------------------------------------------------------===//

TEST(SolverMetricsTest, SatCountersSumOneShotAndStackSolves) {
  using namespace mix::smt;
  MetricsRegistry Reg;
  TermArena A;
  SmtOptions Opts;
  Opts.Metrics = &Reg;
  SmtSolver S(A, Opts);
  const Term *X = A.freshIntVar("x");
  const Term *F = A.andTerm(A.orTerm(A.freshBoolVar("p"), A.freshBoolVar("q")),
                            A.lt(A.intConst(0), X));
  ASSERT_EQ(S.checkSat(F), SolveResult::Sat);
  uint64_t OneShotProps = Reg.counterValue("solver.sat.propagations");
  EXPECT_GT(OneShotProps, 0u);
  EXPECT_GT(Reg.counterValue("solver.sat.decisions"), 0u);

  // Each round pops back to the empty stack, which starts a fresh epoch.
  // Distinct constants keep every round a real query (no cache shortcut).
  std::unique_ptr<AssertionStack> St = S.openStack();
  for (long long K = 0; K != 3; ++K) {
    St->push();
    St->assertTerm(A.andTerm(A.lt(X, A.intConst(K)), A.lt(A.intConst(K), X)));
    EXPECT_EQ(St->checkSat(), SolveResult::Unsat);
    St->pop();
  }
  EXPECT_EQ(Reg.counterValue("solver.queries"), 4u);
  EXPECT_GT(Reg.counterValue("solver.sat.propagations"), OneShotProps);
  EXPECT_EQ(Reg.counterValue("solver.sat.decisions"), S.stats().Decisions);
  EXPECT_EQ(Reg.counterValue("solver.sat.propagations"),
            S.stats().Propagations);
  EXPECT_EQ(Reg.counterValue("solver.sat.conflicts"), S.stats().Conflicts);
  EXPECT_EQ(Reg.counterValue("solver.inc.recycles"), 3u);
  EXPECT_EQ(S.stats().Recycles, 3u);

  // Both export surfaces carry them.
  testjson::Value Doc;
  std::string Error;
  ASSERT_TRUE(testjson::parseDocument(Reg.renderJSON(), Doc, &Error)) << Error;
  for (const char *Name : {"solver.sat.decisions", "solver.sat.propagations",
                           "solver.sat.conflicts", "solver.inc.recycles"})
    EXPECT_TRUE(Doc["counters"].has(Name)) << Name;
  EXPECT_EQ(Doc["counters"]["solver.inc.recycles"].Num, 3);
  std::string Text = Reg.renderOpenMetrics();
  EXPECT_NE(Text.find("# TYPE mix_solver_sat_propagations counter\n"),
            std::string::npos);
  EXPECT_NE(Text.find("mix_solver_inc_recycles_total 3\n"), std::string::npos);
}

TEST(SolverMetricsTest, StackQueriesEmitSpans) {
  using namespace mix::smt;
  TraceSink Sink;
  TermArena A;
  SmtOptions Opts;
  Opts.Trace = &Sink;
  SmtSolver S(A, Opts);
  std::unique_ptr<AssertionStack> St = S.openStack();
  St->push();
  St->assertTerm(A.lt(A.intConst(0), A.freshIntVar("x")));
  ASSERT_EQ(St->checkSat(), SolveResult::Sat);
  St->push();
  St->assertTerm(A.falseTerm());
  ASSERT_EQ(St->checkSat(), SolveResult::Unsat); // constant fold: no query
  size_t Spans = 0;
  for (const TraceEvent &E : Sink.snapshotEvents())
    if (E.Name == "solver.query") {
      ++Spans;
      EXPECT_EQ(E.Cat, "solver");
      EXPECT_EQ(E.Args, "{\"result\": \"sat\"}");
    }
  EXPECT_EQ(Spans, 1u);
}

} // namespace
