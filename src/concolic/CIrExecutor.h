//===--- CIrExecutor.h - Concolic interpreter for mini-C bodies -*- C++ -*-===//
//
// Part of the Mix reproduction of "Mixing Type Checking and Symbolic
// Execution" (PLDI 2010).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The mini-C body executor: an interpreter over the ir::CIrFunction
/// bytecode that plugs into CSymExecutor through the CBodyEngine seam.
/// The split of labor is the memory-model adapter pattern: this engine
/// owns instruction dispatch and continuation order (via the
/// continuation barriers of CRegion::Spans), while CSymExecutor remains the state
/// layer — lazy memory, pointer case analysis, feasibility checks,
/// warning dedup and witness provenance — driven exclusively through its
/// public adapter API. Every body runs here: the entry function's and
/// each inlined callee's (inlineCall re-enters through the seam).
///
//===----------------------------------------------------------------------===//

#ifndef MIX_CONCOLIC_CIREXECUTOR_H
#define MIX_CONCOLIC_CIREXECUTOR_H

#include "csym/CSymExecutor.h"
#include "ir/CIr.h"
#include "observe/Metrics.h"
#include "observe/Phase.h"

#include <map>
#include <memory>

namespace mix {
namespace concolic {

/// The IR-interpreting body engine for mini-C.
class CIrExecutor final : public c::CBodyEngine {
public:
  CIrExecutor(c::CSymExecutor &Exec, obs::MetricsRegistry *Metrics,
              obs::RequestTelemetry *Telemetry);

  std::vector<c::CSymState> runBody(const c::CFuncDecl *F,
                                    c::CSymState State,
                                    unsigned Depth) override;

private:
  /// A register value: the CSymValue an expression produced, or the
  /// guarded cell list an lvalue resolved to. (No concrete shadows:
  /// mini-C execution cost is dominated by solver terms and store
  /// copies.)
  struct RegVal {
    enum class K : uint8_t { Invalid, Val, Cells };
    K Kind = K::Invalid;
    c::CSymValue V;
    std::vector<c::CSymExecutor::LVal> Cells;
  };

  /// One path outcome of running (part of) a region: a final state plus
  /// the register file the enclosing region resumes with. There are no
  /// error outcomes: a dead path simply produces no outcome.
  struct Outcome {
    c::CSymState S;
    std::vector<RegVal> Regs;
    RegVal Value;
  };

  static RegVal val(c::CSymValue V) {
    RegVal R;
    R.Kind = RegVal::K::Val;
    R.V = std::move(V);
    return R;
  }
  static RegVal cells(std::vector<c::CSymExecutor::LVal> C) {
    RegVal R;
    R.Kind = RegVal::K::Cells;
    R.Cells = std::move(C);
    return R;
  }

  /// Runs one state through instructions [From, End) of region \p R; a
  /// successful outcome is a fall-through at End.
  std::vector<Outcome> runSegment(const ir::CIrFunction &F, uint32_t R,
                                  std::vector<RegVal> Regs, c::CSymState S,
                                  size_t From, size_t End);
  /// Resumes region \p R after multi-outcome instruction \p I, honoring
  /// the continuation barriers of CRegion::Spans.
  std::vector<Outcome> continueSegment(const ir::CIrFunction &F, uint32_t R,
                                       size_t I, uint32_t Dst,
                                       std::vector<Outcome> Outs, size_t End);
  /// Runs a whole sub-region with a copy of the register file.
  std::vector<Outcome> runRegion(const ir::CIrFunction &F, uint32_t R,
                                 const std::vector<RegVal> &Regs,
                                 c::CSymState S);

  std::vector<Outcome> execCall(const ir::CIrFunction &F, uint32_t R,
                                size_t I, const std::vector<RegVal> &Regs,
                                c::CSymState S);
  std::vector<Outcome> execBranch(const ir::CIrFunction &F, uint32_t R,
                                  size_t I, std::vector<RegVal> Regs,
                                  c::CSymState S, size_t End);
  std::vector<Outcome> execLoop(const ir::CIrFunction &F, uint32_t R,
                                size_t I, std::vector<RegVal> Regs,
                                c::CSymState S, size_t End);

  /// One-time lowering per function.
  const ir::CIrFunction &lowered(const c::CFuncDecl *Fn);

  c::CSymExecutor &Exec;
  obs::RequestTelemetry *Telemetry = nullptr;

  /// Inline depth of the body currently being interpreted. Saved and
  /// restored around nested runBody entries (an inlined call re-enters
  /// the engine through CSymExecutor::inlineCall).
  unsigned CurDepth = 0;

  std::map<const c::CFuncDecl *, std::unique_ptr<ir::CIrFunction>>
      LoweredCache;

  obs::Counter CExecPaths;
  obs::Counter CLowerHits, CLowerMisses;
};

/// Builds the body engine for \p Exec and installs it there. The
/// returned engine must outlive every run of \p Exec.
std::unique_ptr<c::CBodyEngine>
makeCBodyEngine(c::CSymExecutor &Exec, obs::MetricsRegistry *Metrics,
                obs::RequestTelemetry *Telemetry);

} // namespace concolic
} // namespace mix

#endif // MIX_CONCOLIC_CIREXECUTOR_H
