//===--- CSymInterp.cpp - Bytecode interpreter for mini-C bodies ----------===//
//
// Part of the Mix reproduction of "Mixing Type Checking and Symbolic
// Execution" (PLDI 2010).
//
//===----------------------------------------------------------------------===//
//
// The body half of CSymExecutor: an interpreter over the ir::CIrFunction
// bytecode, one case per opcode. It owns instruction dispatch and
// continuation order; the state layer in CSymExecutor.cpp owns memory,
// feasibility and warnings. The order of warnings, fresh terms, objects,
// trail entries and budget trips is part of the observable output and
// is pinned by the CLI goldens and tests/CIrDiffTest.cpp. A dead path
// returns zero outcomes.
//
// Continuation barriers: when an instruction yields several outcomes,
// every span enclosing it contributes a barrier at its end — the
// innermost enclosing node's remaining instructions run for all
// outcomes (in order) before the next level out.
//
//===----------------------------------------------------------------------===//

#include "csym/CSymExecutor.h"

#include "ir/CIr.h"
#include "observe/Phase.h"

#include <algorithm>
#include <cassert>

using namespace mix;
using namespace mix::c;
using mix::smt::Term;

namespace {

/// Resumes execution after the multi-outcome instruction at index \p I,
/// running the outcomes \p Outs barrier-by-barrier to \p End. \p Spans
/// are the enclosing region's node spans (plus any synthetic prefix
/// spans); \p Run executes one outcome over a half-open instruction
/// range: `Run(Outcome, From, To) -> std::vector<Outcome>`.
///
/// The caller handles the single-outcome fast path (resume directly, no
/// barrier is observable) before calling this.
template <class Outcome, class RunSeg>
std::vector<Outcome>
continueWithBarriers(const std::vector<std::pair<uint32_t, uint32_t>> &Spans,
                     size_t I, size_t End, std::vector<Outcome> Outs,
                     RunSeg Run) {
  std::vector<size_t> Barriers;
  for (const auto &[Start, SpanEnd] : Spans)
    if (Start <= I && I < SpanEnd && SpanEnd > I + 1 && SpanEnd < End)
      Barriers.push_back(SpanEnd);
  std::sort(Barriers.begin(), Barriers.end());
  Barriers.erase(std::unique(Barriers.begin(), Barriers.end()),
                 Barriers.end());
  Barriers.push_back(End);

  std::vector<Outcome> Cur = std::move(Outs);
  size_t Pos = I + 1;
  for (size_t Barrier : Barriers) {
    std::vector<Outcome> Next;
    for (Outcome &O : Cur) {
      std::vector<Outcome> Rest = Run(std::move(O), Pos, Barrier);
      for (Outcome &Nx : Rest)
        Next.push_back(std::move(Nx));
    }
    Cur = std::move(Next);
    Pos = Barrier;
  }
  return Cur;
}

} // namespace

const ir::CIrFunction &CSymExecutor::lowered(const CFuncDecl *Fn) {
  auto It = LoweredCache.find(Fn);
  if (It != LoweredCache.end()) {
    CLowerHits.inc();
    return *It->second;
  }
  obs::PhaseTimer Timer(Opts.Telemetry, obs::Phase::IrLower);
  CLowerMisses.inc();
  std::unique_ptr<ir::CIrFunction> F = ir::lowerC(Fn, Program);
  assert(F && ir::verifyC(*F).empty() &&
         "lowering produced ill-formed bytecode");
  return *LoweredCache.emplace(Fn, std::move(F)).first->second;
}

std::vector<CSymState> CSymExecutor::runBody(const CFuncDecl *Fn,
                                             CSymState State,
                                             unsigned Depth) {
  const ir::CIrFunction &F = lowered(Fn);

  unsigned SavedDepth = CurDepth;
  CurDepth = Depth;

  std::vector<Outcome> Res =
      runSegment(F, 0, std::vector<RegVal>(F.NumRegs), std::move(State), 0,
                 F.Regions[0].Code.size());

  CurDepth = SavedDepth;

  CExecPaths.add(Res.size());
  std::vector<CSymState> Out;
  Out.reserve(Res.size());
  for (Outcome &O : Res)
    Out.push_back(std::move(O.S));
  return Out;
}

std::vector<CSymExecutor::Outcome>
CSymExecutor::runRegion(const ir::CIrFunction &F, uint32_t R,
                        const std::vector<RegVal> &Regs, CSymState S) {
  return runSegment(F, R, Regs, std::move(S), 0, F.Regions[R].Code.size());
}

std::vector<CSymExecutor::Outcome>
CSymExecutor::continueSegment(const ir::CIrFunction &F, uint32_t R,
                              size_t I, uint32_t Dst,
                              std::vector<Outcome> Outs, size_t End) {
  if (Dst != ir::CNoReg)
    for (Outcome &O : Outs)
      O.Regs[Dst] = O.Value;

  // One outcome resumes directly — no barrier is observable.
  if (Outs.size() == 1)
    return runSegment(F, R, std::move(Outs[0].Regs), std::move(Outs[0].S),
                      I + 1, End);

  return continueWithBarriers(
      F.Regions[R].Spans, I, End, std::move(Outs),
      [&](Outcome O, size_t From, size_t To) {
        return runSegment(F, R, std::move(O.Regs), std::move(O.S), From, To);
      });
}

std::vector<CSymExecutor::Outcome>
CSymExecutor::runSegment(const ir::CIrFunction &F, uint32_t R,
                         std::vector<RegVal> Regs, CSymState S, size_t From,
                         size_t End) {
  for (size_t I = From; I < End; ++I) {
    const ir::CInstr &In = F.Regions[R].Code[I];
    switch (In.Op) {
    case ir::COpcode::CStmtEntry: {
      // Statement entry: returned states pass through, path budget
      // trips mark the run incomplete; both skip the statement.
      if (S.Returned) {
        assert((size_t)In.Imm <= End && "skip target crosses a barrier");
        I = (size_t)In.Imm - 1;
        break;
      }
      if (PathsThisRun > Opts.MaxPaths) {
        IncompleteThisRun = true;
        assert((size_t)In.Imm <= End && "skip target crosses a barrier");
        I = (size_t)In.Imm - 1;
        break;
      }
      break;
    }
    case ir::COpcode::CConstInt:
      Regs[In.Dst] = val(CSymValue::scalar(Terms.intConst(In.Imm)));
      break;
    case ir::COpcode::CStr: {
      LocId Obj = newObject(Ctx.charType(), "<string>");
      Regs[In.Dst] =
          val(CSymValue::pointerTo(Terms, PtrTarget::object(Obj)));
      break;
    }
    case ir::COpcode::CNull:
      Regs[In.Dst] = val(CSymValue::nullPointer(Terms));
      break;
    case ir::COpcode::CLoadIdent: {
      const std::string &Name = F.Names[In.Aux];
      // Function names decay to function pointers unless shadowed.
      if (!S.Locals.count(Name) && !Program.findGlobal(Name))
        if (const CFuncDecl *Fn = Program.findFunc(Name)) {
          Regs[In.Dst] =
              val(CSymValue::pointerTo(Terms, PtrTarget::function(Fn)));
          break;
        }
      LocId Loc = NoLoc;
      auto It = S.Locals.find(Name);
      if (It != S.Locals.end())
        Loc = It->second;
      else if (Program.findGlobal(Name))
        Loc = globalLoc(Name);
      if (Loc == NoLoc) {
        warn(In.Loc, "unknown variable '" + Name + "'");
        return {}; // the path dies
      }
      Regs[In.Dst] = val(readCell(S, Loc, ""));
      break;
    }
    case ir::COpcode::CLValIdent: {
      const std::string &Name = F.Names[In.Aux];
      LocId Loc = NoLoc;
      auto It = S.Locals.find(Name);
      if (It != S.Locals.end())
        Loc = It->second;
      else if (Program.findGlobal(Name))
        Loc = globalLoc(Name);
      if (Loc == NoLoc) {
        warn(In.Loc, "unknown variable '" + Name + "'");
        return {};
      }
      Regs[In.Dst] = cells({{Terms.trueTerm(), Loc, ""}});
      break;
    }
    case ir::COpcode::CLValDeref:
    case ir::COpcode::CLValArrow: {
      const CSymValue &V = Regs[In.A].V;
      bool Arrow = In.Op == ir::COpcode::CLValArrow;
      if (!V.isPtr()) {
        warn(In.Loc, Arrow ? "'->' on a non-pointer value"
                           : "dereference of a non-pointer value");
        return {};
      }
      if (Opts.CheckDereferences) {
        ++Statistics.NullChecks;
        const Term *NullG = V.nullGuard(Terms);
        if (feasibleWith(S, NullG))
          warn(In.Loc, "possible null dereference", &S,
               Terms.andTerm(pathTerm(S), NullG));
      }
      // Continue under the assumption the dereference survived.
      extendPath(S, V.nonNullGuard(Terms));
      if (!feasible(S))
        return {}; // definitely null: this path dies here
      std::vector<LVal> Cs;
      for (const PtrCase &C : V.cases()) {
        if (C.Target.K != PtrTarget::Kind::Object)
          continue;
        if (!Arrow) {
          Cs.push_back({C.Guard, C.Target.Loc, C.Target.Field});
          continue;
        }
        const std::string &Fld = F.Names[In.Aux];
        std::string Field =
            C.Target.Field.empty() ? Fld : C.Target.Field + "." + Fld;
        Cs.push_back({C.Guard, C.Target.Loc, std::move(Field)});
      }
      Regs[In.Dst] = cells(std::move(Cs));
      break;
    }
    case ir::COpcode::CLValField: {
      // base.field: extend the base cells' field paths.
      std::vector<LVal> Cs = Regs[In.A].Cells;
      const std::string &Fld = F.Names[In.Aux];
      for (LVal &Cell : Cs)
        Cell.Field = Cell.Field.empty() ? Fld : Cell.Field + "." + Fld;
      Regs[In.Dst] = cells(std::move(Cs));
      break;
    }
    case ir::COpcode::CNotLValue:
      warn(In.Loc, "expression is not an lvalue");
      return {};
    case ir::COpcode::CReadMerged: {
      const std::vector<LVal> &Cs = Regs[In.A].Cells;
      if (Cs.empty())
        return {}; // an lvalue with no cells reads nothing
      CSymValue Acc = readCell(S, Cs[0].Loc, Cs[0].Field);
      for (size_t K = 1; K != Cs.size(); ++K) {
        CSymValue Next = readCell(S, Cs[K].Loc, Cs[K].Field);
        if (Next.kind() == Acc.kind())
          Acc = CSymValue::ite(Terms, Cs[K].Guard, Next, Acc);
      }
      Regs[In.Dst] = val(std::move(Acc));
      break;
    }
    case ir::COpcode::CDerefRead: {
      const CSymValue &V = Regs[In.A].V;
      // Functions decay: *f is f for function-pointer values.
      if (V.isPtr()) {
        bool IsFnPtr = false;
        for (const PtrCase &C : V.cases())
          if (C.Target.K == PtrTarget::Kind::Function ||
              C.Target.K == PtrTarget::Kind::UnknownFn)
            IsFnPtr = true;
        if (IsFnPtr) {
          Regs[In.Dst] = val(V);
          break;
        }
      }
      if (!V.isPtr()) {
        warn(In.Loc, "dereference of a non-pointer value");
        return {};
      }
      // Reading through a data pointer: null check, then merge the
      // possible cells' contents.
      if (Opts.CheckDereferences) {
        ++Statistics.NullChecks;
        const Term *NullG = V.nullGuard(Terms);
        if (feasibleWith(S, NullG))
          warn(In.Loc, "possible null dereference", &S,
               Terms.andTerm(pathTerm(S), NullG));
      }
      extendPath(S, V.nonNullGuard(Terms));
      if (!feasible(S))
        return {};
      CSymValue Acc;
      bool First = true;
      for (const PtrCase &C : V.cases()) {
        if (C.Target.K != PtrTarget::Kind::Object)
          continue;
        CSymValue Next = readCell(S, C.Target.Loc, C.Target.Field);
        if (First) {
          Acc = std::move(Next);
          First = false;
        } else if (Next.kind() == Acc.kind()) {
          Acc = CSymValue::ite(Terms, C.Guard, Next, Acc);
        }
      }
      if (First)
        return {}; // no object target: nothing to read
      Regs[In.Dst] = val(std::move(Acc));
      break;
    }
    case ir::COpcode::CAddrOf: {
      std::vector<PtrCase> Cases;
      for (const LVal &Cell : Regs[In.A].Cells)
        Cases.push_back(
            {Cell.Guard, PtrTarget::object(Cell.Loc, Cell.Field)});
      if (Cases.empty())
        return {};
      Regs[In.Dst] = val(CSymValue::pointer(std::move(Cases)));
      break;
    }
    case ir::COpcode::CNot:
      Regs[In.Dst] =
          val(CSymValue::scalar(Terms.notTerm(truthTerm(Regs[In.A].V))));
      break;
    case ir::COpcode::CNeg:
      Regs[In.Dst] =
          val(CSymValue::scalar(Terms.neg(intTerm(Regs[In.A].V))));
      break;
    case ir::COpcode::CBinOp:
      Regs[In.Dst] =
          val(evalBinaryValues(In.BOp, Regs[In.A].V, Regs[In.B].V));
      break;
    case ir::COpcode::CStoreCells:
      writeCells(S, Regs[In.A].Cells, Regs[In.B].V);
      break;
    case ir::COpcode::CMalloc: {
      const CType *Pointee = In.Ty;
      if (!Pointee || Pointee->isVoid())
        Pointee = Ctx.intType();
      LocId Obj = newObject(Pointee, F.Names[In.Aux]);
      Regs[In.Dst] =
          val(CSymValue::pointerTo(Terms, PtrTarget::object(Obj)));
      break;
    }
    case ir::COpcode::CDeclLocal: {
      LocId Loc = newObject(In.Ty, F.Names[In.Aux2]);
      S.Locals[F.Names[In.Aux]] = Loc;
      S.LocalTypes[F.Names[In.Aux]] = In.Ty;
      Regs[In.Dst] = cells({{Terms.trueTerm(), Loc, ""}});
      break;
    }
    case ir::COpcode::CInitLocal: {
      // Strong update of the freshly declared cell.
      const LVal &Cell = Regs[In.A].Cells[0];
      S.Store.set({Cell.Loc, Cell.Field}, Regs[In.B].V);
      break;
    }
    case ir::COpcode::CCall:
      return continueSegment(F, R, I, In.Dst,
                             execCall(F, R, I, Regs, std::move(S)),
                             End);
    case ir::COpcode::CBranch:
      return execBranch(F, R, I, std::move(Regs), std::move(S), End);
    case ir::COpcode::CLoop:
      return execLoop(F, R, I, std::move(Regs), std::move(S), End);
    case ir::COpcode::CReturn: {
      S.Returned = true;
      S.RetValue = In.A == ir::CNoReg
                       ? CSymValue::scalar(Terms.intConst(0))
                       : Regs[In.A].V;
      break;
    }
    }
  }

  // Fall-through at End.
  Outcome O;
  O.S = std::move(S);
  O.Regs = std::move(Regs);
  std::vector<Outcome> Res;
  Res.push_back(std::move(O));
  return Res;
}

std::vector<CSymExecutor::Outcome>
CSymExecutor::execCall(const ir::CIrFunction &F, uint32_t R, size_t I,
                       const std::vector<RegVal> &Regs, CSymState S) {
  const ir::CInstr &In = F.Regions[R].Code[I];

  std::vector<CSymValue> Args;
  Args.reserve(In.ArgsCount);
  for (uint32_t K = 0; K < In.ArgsCount; ++K)
    Args.push_back(Regs[F.ArgRegs[In.ArgsBegin + K]].V);

  std::vector<Flow> Flows;
  if (In.Callee) {
    dispatchCall(In.CallNode, In.Callee, Args, std::move(S), CurDepth, Flows);
  } else {
    // Indirect call: fork per feasible callee-pointer target.
    const CSymValue &CV = Regs[In.A].V;
    if (!CV.isPtr()) {
      warn(In.Loc, "call through a non-pointer value");
      return {};
    }
    bool AnyTarget = false;
    for (const PtrCase &C : CV.cases()) {
      if (!feasibleWith(S, C.Guard))
        continue;
      CSymState Branch = S;
      extendPath(Branch, C.Guard);
      switch (C.Target.K) {
      case PtrTarget::Kind::Function:
        AnyTarget = true;
        dispatchCall(In.CallNode, C.Target.Fn, Args, std::move(Branch),
                     CurDepth, Flows);
        break;
      case PtrTarget::Kind::UnknownFn: {
        AnyTarget = true;
        warn(In.Loc,
             "call through unknown function pointer cannot be "
             "executed symbolically; consider MIX(typed)",
             &Branch);
        Flows.push_back(externCall(nullptr, std::move(Branch)));
        break;
      }
      case PtrTarget::Kind::Null:
        warn(In.Loc, "possible call through null function pointer", &Branch);
        break;
      case PtrTarget::Kind::Object:
        break;
      }
    }
    if (!AnyTarget)
      warn(In.Loc, "indirect call has no callable target");
  }

  std::vector<Outcome> Outs;
  Outs.reserve(Flows.size());
  for (Flow &Fl : Flows) {
    Outcome O;
    O.S = std::move(Fl.State);
    O.Regs = Regs;
    O.Value = val(std::move(Fl.Value));
    Outs.push_back(std::move(O));
  }
  return Outs;
}

std::vector<CSymExecutor::Outcome>
CSymExecutor::execBranch(const ir::CIrFunction &F, uint32_t R, size_t I,
                         std::vector<RegVal> Regs, CSymState S, size_t End) {
  const ir::CInstr &In = F.Regions[R].Code[I];
  const Term *Cond = truthTerm(Regs[In.A].V);

  std::vector<Outcome> Outs;
  if (feasibleWith(S, Cond)) {
    ++PathsThisRun;
    ++Statistics.PathsExplored;
    CSymState Then = S;
    extendPath(Then, Cond);
    if (Opts.Prov)
      Then.Trail.push_back({In.Loc2, "condition true"});
    for (Outcome &O : runRegion(F, In.R1, Regs, std::move(Then)))
      Outs.push_back(std::move(O));
  } else {
    ++Statistics.ForksPruned;
  }

  const Term *NotCond = Terms.notTerm(Cond);
  if (feasibleWith(S, NotCond)) {
    ++PathsThisRun;
    ++Statistics.PathsExplored;
    CSymState Else = std::move(S);
    extendPath(Else, NotCond);
    if (Opts.Prov)
      Else.Trail.push_back({In.Loc2, "condition false"});
    if (In.R2 != ir::CNoRegion) {
      for (Outcome &O : runRegion(F, In.R2, Regs, std::move(Else)))
        Outs.push_back(std::move(O));
    } else {
      Outcome O;
      O.S = std::move(Else);
      O.Regs = std::move(Regs);
      Outs.push_back(std::move(O));
    }
  } else {
    ++Statistics.ForksPruned;
  }

  return continueSegment(F, R, I, ir::CNoReg, std::move(Outs), End);
}

std::vector<CSymExecutor::Outcome>
CSymExecutor::execLoop(const ir::CIrFunction &F, uint32_t R, size_t I,
                       std::vector<RegVal> Regs, CSymState S, size_t End) {
  const ir::CInstr &In = F.Regions[R].Code[I];
  const ir::CRegion &CondR = F.Regions[In.R1];

  // Bounded unrolling: each round forks on the
  // condition; paths still looping after the bound are kept (without the
  // exit constraint) and the run is flagged incomplete.
  std::vector<Outcome> Active;
  {
    Outcome A;
    A.S = std::move(S);
    A.Regs = std::move(Regs);
    Active.push_back(std::move(A));
  }
  std::vector<Outcome> Exited;

  for (unsigned Round = 0;
       Round != Opts.LoopBound && !Active.empty(); ++Round) {
    std::vector<Outcome> NextActive;
    for (Outcome &A : Active) {
      if (A.S.Returned) {
        Exited.push_back(std::move(A));
        continue;
      }
      for (Outcome &C : runRegion(F, In.R1, A.Regs, std::move(A.S))) {
        const Term *Cond = truthTerm(C.Regs[CondR.Result].V);
        const Term *NotCond = Terms.notTerm(Cond);
        if (feasibleWith(C.S, NotCond)) {
          Outcome Exit;
          Exit.S = C.S;
          Exit.Regs = C.Regs;
          extendPath(Exit.S, NotCond);
          if (Opts.Prov)
            Exit.S.Trail.push_back({In.Loc2, "loop exit"});
          Exited.push_back(std::move(Exit));
        }
        if (feasibleWith(C.S, Cond)) {
          CSymState Loop = std::move(C.S);
          extendPath(Loop, Cond);
          if (Opts.Prov)
            Loop.Trail.push_back({In.Loc2, "loop iteration"});
          for (Outcome &O : runRegion(F, In.R2, C.Regs, std::move(Loop)))
            NextActive.push_back(std::move(O));
        }
      }
    }
    Active = std::move(NextActive);
  }

  if (!Active.empty()) {
    IncompleteThisRun = true;
    for (Outcome &A : Active)
      Exited.push_back(std::move(A));
  }

  return continueSegment(F, R, I, ir::CNoReg, std::move(Exited), End);
}
