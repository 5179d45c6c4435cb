//===--- CSymExecutor.cpp - Symbolic executor for mini-C --------------------===//
//
// Part of the Mix reproduction of "Mixing Type Checking and Symbolic
// Execution" (PLDI 2010).
//
//===----------------------------------------------------------------------===//

#include "csym/CSymExecutor.h"

#include "ir/CIr.h"

using namespace mix::c;
using mix::smt::Term;

CSymExecutor::CSymExecutor(const CProgram &Program, CAstContext &Ctx,
                           DiagnosticEngine &Diags, smt::TermArena &Terms,
                           smt::ISolver &Solver, CSymOptions Opts)
    : Program(Program), Ctx(Ctx), Diags(Diags), Terms(Terms), Solver(Solver),
      Stack(Solver.openStack()), Opts(Opts) {
  Objects.push_back({nullptr, "<none>"}); // slot 0 = NoLoc
  if (Opts.Metrics) {
    CExecPaths = Opts.Metrics->counter("exec.paths");
    CLowerHits = Opts.Metrics->counter("ir.lower.hits");
    CLowerMisses = Opts.Metrics->counter("ir.lower.misses");
  }
}

CSymExecutor::~CSymExecutor() = default;

LocId CSymExecutor::newObject(const CType *Ty, std::string Name) {
  Objects.push_back({Ty, std::move(Name)});
  return (LocId)(Objects.size() - 1);
}

LocId CSymExecutor::globalLoc(const std::string &Name) {
  auto It = GlobalLocs.find(Name);
  if (It != GlobalLocs.end())
    return It->second;
  const CGlobalDecl *G = Program.findGlobal(Name);
  assert(G && "globalLoc() for unknown global");
  LocId Loc = newObject(G->type(), Name);
  GlobalLocs[Name] = Loc;
  return Loc;
}

const CType *CSymExecutor::cellType(LocId Loc,
                                    const std::string &Field) const {
  const CType *Ty = Objects[Loc].Ty;
  std::string Rest = Field;
  while (Ty && !Rest.empty()) {
    size_t Dot = Rest.find('.');
    std::string Head = Rest.substr(0, Dot);
    Rest = Dot == std::string::npos ? "" : Rest.substr(Dot + 1);
    if (!Ty->isStruct())
      return nullptr;
    const CStructDecl::Field *F = Ty->structDecl()->findField(Head);
    if (!F)
      return nullptr;
    Ty = F->Ty;
  }
  return Ty;
}

bool CSymExecutor::feasible(const CSymState &State) {
  const Term *Path = pathTerm(State);
  if (Path->kind() == smt::TermKind::BoolConst)
    return Path->value() != 0;
  return Stack->checkPath(State.PC) != smt::SolveResult::Unsat;
}

bool CSymExecutor::feasibleWith(const CSymState &State, const Term *Extra) {
  const Term *Whole = Terms.andTerm(pathTerm(State), Extra);
  if (Whole->kind() == smt::TermKind::BoolConst)
    return Whole->value() != 0;
  return Stack->checkPath(State.PC, Extra) != smt::SolveResult::Unsat;
}

void CSymExecutor::warn(SourceLoc Loc, const std::string &Message,
                        const CSymState *State, const Term *WitnessCond) {
  std::string Key = Loc.str() + "|" + Message;
  if (!EmittedWarnings.insert(Key).second)
    return;
  ++WarningsThisRun;
  size_t Idx = Diags.report(DiagKind::Warning, Loc, Message);
  if (Opts.Prov && State) {
    auto Payload = std::make_shared<prov::DiagProvenance>();
    prov::WitnessPath W;
    W.Steps = State->Trail;
    const Term *Cond = WitnessCond ? WitnessCond : pathTerm(*State);
    // Renumber variables in first-occurrence order: the raw arena indices
    // depend on how many fresh terms the executor had already allocated,
    // which varies with cache hits and replay, and the rendered condition
    // must be byte-identical cold and warm.
    W.PathCondition = smt::normalizedStr(Cond);
    smt::SmtModel Model;
    if (Solver.checkSat(Cond, &Model) == smt::SolveResult::Sat) {
      for (auto &[Name, Value] : smt::modelBindings(Terms, Model))
        W.Model.push_back({Name, Value});
      W.ModelComplete = Model.Complete;
    }
    W.DecidedBy = Solver.name();
    Payload->Witness = std::move(W);
    Diags.attachProvenance(Idx, std::move(Payload));
    Opts.Prov->countWitness();
  }
}

CSymValue CSymExecutor::seededPointer(const CType *PtrTy, NullSeed Seed,
                                      const std::string &Name) {
  assert(PtrTy->isPointer() && "seededPointer() needs a pointer type");
  const CType *Pointee = PtrTy->pointee();
  if (Pointee->isFunc())
    return CSymValue::pointerTo(Terms, PtrTarget::unknownFn());
  // void* pointees become int cells (the paper's executor is untyped at
  // this level; ours needs some object type).
  if (Pointee->isVoid())
    Pointee = Ctx.intType();
  LocId Obj = newObject(Pointee, Name + "->");
  if (Seed == NullSeed::Nonnull)
    return CSymValue::pointerTo(Terms, PtrTarget::object(Obj));
  // (alpha ? loc : 0) — Section 4.1.
  const Term *Alpha = Terms.freshBoolVar(Name + "_nonnull");
  return CSymValue::pointer({{Alpha, PtrTarget::object(Obj)},
                             {Terms.notTerm(Alpha), PtrTarget::null()}});
}

CSymValue CSymExecutor::lazyInit(const CType *Ty, const std::string &Name) {
  if (!Ty)
    return CSymValue::scalar(Terms.freshIntVar(Name));
  if (Ty->isPointer()) {
    NullSeed Seed = NullSeed::MayBeNull;
    if (Ty->qualifier() == QualAnnot::Nonnull)
      Seed = NullSeed::Nonnull;
    else if (Ty->qualifier() == QualAnnot::None && !Opts.ParamsMayBeNull)
      Seed = NullSeed::Nonnull;
    return seededPointer(Ty, Seed, Name);
  }
  // Scalars (and, degenerately, whole structs read as values).
  return CSymValue::scalar(Terms.freshIntVar(Name));
}

CSymValue CSymExecutor::readCell(CSymState &State, LocId Loc,
                                 const std::string &Field) {
  CellKey Key{Loc, Field};
  if (const CSymValue *V = State.Store.get(Key))
    return *V;
  std::string Name = Objects[Loc].Name;
  if (!Field.empty())
    Name += "." + Field;
  CSymValue Init = lazyInit(cellType(Loc, Field), Name);
  State.Store.set(Key, Init);
  return Init;
}

void CSymExecutor::writeCells(CSymState &State,
                              const std::vector<LVal> &Cells,
                              const CSymValue &Value) {
  for (const LVal &Cell : Cells) {
    CellKey Key{Cell.Loc, Cell.Field};
    if (Cell.Guard->kind() == smt::TermKind::BoolConst &&
        Cell.Guard->value()) {
      // Strong update.
      State.Store.set(Key, Value);
      continue;
    }
    // Morris's general axiom of assignment: conditional update of every
    // possibly-aliased cell.
    CSymValue Old = readCell(State, Cell.Loc, Cell.Field);
    if (Old.kind() != Value.kind()) {
      // Type confusion through a wild pointer; overwrite outright under
      // the guard by preferring the new value.
      State.Store.set(Key, Value);
      continue;
    }
    State.Store.set(Key, CSymValue::ite(Terms, Cell.Guard, Value, Old));
  }
}

const Term *CSymExecutor::truthTerm(const CSymValue &V) {
  if (V.isPtr())
    return V.nonNullGuard(Terms);
  const Term *T = V.scalarTerm();
  if (T->isBool())
    return T;
  return Terms.notTerm(Terms.eqInt(T, Terms.intConst(0)));
}

const Term *CSymExecutor::intTerm(const CSymValue &V) {
  if (V.isPtr())
    // Pointers used as integers: only their nullness is observable.
    return Terms.iteInt(V.nonNullGuard(Terms), Terms.freshIntVar("ptrint"),
                        Terms.intConst(0));
  const Term *T = V.scalarTerm();
  if (T->isBool())
    return Terms.iteInt(T, Terms.intConst(1), Terms.intConst(0));
  return T;
}

CSymValue CSymExecutor::evalBinaryValues(CBinaryOp Op, const CSymValue &L,
                                         const CSymValue &R) {
  // Pointer comparisons.
  if ((L.isPtr() || R.isPtr()) &&
      (Op == CBinaryOp::Eq || Op == CBinaryOp::Ne)) {
    const Term *EqG = pointerEqGuard(L, R);
    return CSymValue::scalar(Op == CBinaryOp::Eq ? EqG
                                                 : Terms.notTerm(EqG));
  }
  // Pointer arithmetic keeps the pointer (offsets are not modeled).
  if (L.isPtr() && (Op == CBinaryOp::Add || Op == CBinaryOp::Sub))
    return L;
  if (R.isPtr() && Op == CBinaryOp::Add)
    return R;

  switch (Op) {
  case CBinaryOp::Add:
    return CSymValue::scalar(Terms.add(intTerm(L), intTerm(R)));
  case CBinaryOp::Sub:
    return CSymValue::scalar(Terms.sub(intTerm(L), intTerm(R)));
  case CBinaryOp::Eq:
    return CSymValue::scalar(Terms.eqInt(intTerm(L), intTerm(R)));
  case CBinaryOp::Ne:
    return CSymValue::scalar(
        Terms.notTerm(Terms.eqInt(intTerm(L), intTerm(R))));
  case CBinaryOp::Lt:
    return CSymValue::scalar(Terms.lt(intTerm(L), intTerm(R)));
  case CBinaryOp::Gt:
    return CSymValue::scalar(Terms.lt(intTerm(R), intTerm(L)));
  case CBinaryOp::Le:
    return CSymValue::scalar(Terms.le(intTerm(L), intTerm(R)));
  case CBinaryOp::Ge:
    return CSymValue::scalar(Terms.le(intTerm(R), intTerm(L)));
  case CBinaryOp::LAnd:
    // Both operands were evaluated (side effects of the right-hand side
    // are not short-circuited — a documented simplification).
    return CSymValue::scalar(Terms.andTerm(truthTerm(L), truthTerm(R)));
  case CBinaryOp::LOr:
    return CSymValue::scalar(Terms.orTerm(truthTerm(L), truthTerm(R)));
  }
  return CSymValue::scalar(Terms.intConst(0));
}

const Term *CSymExecutor::pointerEqGuard(const CSymValue &L,
                                         const CSymValue &R) {
  // Scalar zero against a pointer: a null test.
  auto IsZero = [](const CSymValue &V) {
    return V.isScalar() && V.scalarTerm()->kind() == smt::TermKind::IntConst &&
           V.scalarTerm()->value() == 0;
  };
  if (L.isPtr() && IsZero(R))
    return L.nullGuard(Terms);
  if (R.isPtr() && IsZero(L))
    return R.nullGuard(Terms);
  if (!L.isPtr() || !R.isPtr())
    return Terms.freshBoolVar("ptrcmp");

  const Term *EqG = Terms.falseTerm();
  for (const PtrCase &A : L.cases())
    for (const PtrCase &B : R.cases()) {
      const Term *Both = Terms.andTerm(A.Guard, B.Guard);
      if (A.Target.K == PtrTarget::Kind::UnknownFn ||
          B.Target.K == PtrTarget::Kind::UnknownFn) {
        EqG = Terms.orTerm(EqG,
                           Terms.andTerm(Both, Terms.freshBoolVar("ucmp")));
        continue;
      }
      if (A.Target == B.Target)
        EqG = Terms.orTerm(EqG, Both);
    }
  return EqG;
}

// === calls ===================================================================

void CSymExecutor::dispatchCall(const CCall *Call, const CFuncDecl *Callee,
                                const std::vector<CSymValue> &Args,
                                CSymState State, unsigned Depth,
                                std::vector<Flow> &Out) {
  // MIXY's frontier: MIX(typed) functions are modeled by the type system.
  if (Hook && Callee->mixAnnot() == MixAnnot::Typed) {
    ++Statistics.TypedCalls;
    CSymValue Ret;
    if (Hook->callTypedFunction(*this, State, Call, Callee, Args, Ret)) {
      Out.push_back({std::move(State), std::move(Ret)});
      return;
    }
  }

  // Nonnull annotations on parameters are checked at the call even when
  // the body is not executed (the sysutil_free(nonnull) pattern).
  if (Opts.CheckNonnullArguments) {
    for (size_t I = 0; I != Args.size() && I != Callee->params().size();
         ++I) {
      const CType *ParamTy = Callee->params()[I].Ty;
      if (!ParamTy->isPointer() ||
          ParamTy->qualifier() != QualAnnot::Nonnull || !Args[I].isPtr())
        continue;
      ++Statistics.NullChecks;
      const Term *NullG = Args[I].nullGuard(Terms);
      const Term *NullPath = Terms.andTerm(pathTerm(State), NullG);
      if (feasibleWith(State, NullG))
        warn(Call->loc(),
             "possibly-null argument passed to nonnull "
             "parameter '" +
                 Callee->params()[I].Name + "' of " + Callee->name(),
             &State, NullPath);
    }
  }

  if (!Callee->isDefined() || Depth >= Opts.MaxCallDepth) {
    if (Callee->isDefined())
      IncompleteThisRun = true; // depth budget truncated the inlining
    Out.push_back(externCall(Callee, std::move(State)));
    return;
  }

  ++Statistics.CallsInlined;
  for (Flow &F : inlineCall(Callee, Args, std::move(State), Depth + 1))
    Out.push_back(std::move(F));
}

std::vector<CSymExecutor::Flow>
CSymExecutor::inlineCall(const CFuncDecl *F,
                         const std::vector<CSymValue> &Args, CSymState State,
                         unsigned Depth) {
  // Save the caller's local bindings; the callee gets fresh ones.
  std::map<std::string, LocId> CallerLocals = std::move(State.Locals);
  std::map<std::string, const CType *> CallerTypes =
      std::move(State.LocalTypes);
  State.Locals.clear();
  State.LocalTypes.clear();

  for (size_t I = 0; I != F->params().size(); ++I) {
    const auto &P = F->params()[I];
    LocId Loc = newObject(P.Ty, F->name() + "::" + P.Name);
    State.Locals[P.Name] = Loc;
    State.LocalTypes[P.Name] = P.Ty;
    if (I < Args.size())
      State.Store.set({Loc, ""}, Args[I]);
  }

  std::vector<Flow> Out;
  for (CSymState &S : runBody(F, std::move(State), Depth)) {
    CSymValue Ret;
    if (S.Returned)
      Ret = std::move(S.RetValue);
    else if (F->returnType()->isPointer())
      Ret = CSymValue::nullPointer(Terms);
    else
      Ret = CSymValue::scalar(Terms.intConst(0));
    S.Returned = false;
    S.RetValue = CSymValue();
    S.Locals = CallerLocals;
    S.LocalTypes = CallerTypes;
    Out.push_back({std::move(S), std::move(Ret)});
  }
  return Out;
}

CSymExecutor::Flow CSymExecutor::externCall(const CFuncDecl *Callee,
                                            CSymState State) {
  // Conservative model of an unknown body: no memory effects, a fresh
  // result shaped by the declared return type and its annotations.
  const CType *RetTy = Callee ? Callee->returnType() : nullptr;
  std::string Name = Callee ? Callee->name() + "()" : "<indirect>()";
  CSymValue Ret = RetTy && RetTy->isPointer()
                      ? lazyInit(RetTy, Name)
                      : CSymValue::scalar(Terms.freshIntVar(Name));
  return {std::move(State), std::move(Ret)};
}

// === entry point =============================================================

CSymResult
CSymExecutor::runFunction(const CFuncDecl *F,
                          const std::vector<NullSeed> &ParamSeeds,
                          const std::map<std::string, NullSeed> &GlobalSeeds) {
  assert(F->isDefined() && "runFunction() on an extern declaration");
  WarningsThisRun = 0;
  IncompleteThisRun = false;
  PathsThisRun = 0;

  CSymResult Result;
  CSymState State;

  // Seed pointer-typed globals from the typed calling context.
  for (const auto &[Name, Seed] : GlobalSeeds) {
    const CGlobalDecl *G = Program.findGlobal(Name);
    if (!G || !G->type()->isPointer())
      continue;
    State.Store.set({globalLoc(Name), ""},
                    seededPointer(G->type(), Seed, Name));
  }

  for (size_t I = 0; I != F->params().size(); ++I) {
    const auto &P = F->params()[I];
    LocId Loc = newObject(P.Ty, F->name() + "::" + P.Name);
    State.Locals[P.Name] = Loc;
    State.LocalTypes[P.Name] = P.Ty;
    Result.ParamLocs.push_back(Loc);

    if (P.Ty->isPointer()) {
      NullSeed Seed;
      if (I < ParamSeeds.size())
        Seed = ParamSeeds[I];
      else if (P.Ty->qualifier() == QualAnnot::Nonnull)
        Seed = NullSeed::Nonnull;
      else
        Seed = Opts.ParamsMayBeNull ? NullSeed::MayBeNull
                                    : NullSeed::Nonnull;
      CSymValue V = seededPointer(P.Ty, Seed, F->name() + "::" + P.Name);
      LocId Pointee = NoLoc;
      for (const PtrCase &C : V.cases())
        if (C.Target.K == PtrTarget::Kind::Object)
          Pointee = C.Target.Loc;
      Result.ParamPointeeLocs.push_back(Pointee);
      Result.ParamTerms.push_back(nullptr);
      State.Store.set({Loc, ""}, std::move(V));
    } else {
      Result.ParamPointeeLocs.push_back(NoLoc);
      const smt::Term *ParamTerm =
          Terms.freshIntVar(F->name() + "::" + P.Name);
      Result.ParamTerms.push_back(ParamTerm);
      State.Store.set({Loc, ""}, CSymValue::scalar(ParamTerm));
    }
  }

  for (CSymState &S : runBody(F, std::move(State), 0)) {
    CSymResult::PathOut P;
    P.Path = pathTerm(S);
    P.Returned = S.Returned;
    if (S.Returned)
      P.Ret = std::move(S.RetValue);
    P.Store = std::move(S.Store);
    Result.Paths.push_back(std::move(P));
  }
  Result.Incomplete = IncompleteThisRun;
  Result.WarningCount = WarningsThisRun;
  return Result;
}

bool CSymExecutor::mayBeNull(const Term *Path, const CSymValue &Value) {
  if (!Value.isPtr())
    return false;
  const Term *NullG = Value.nullGuard(Terms);
  return !Solver.isDefinitelyUnsat(Terms.andTerm(Path, NullG));
}

std::optional<CSymValue>
CSymExecutor::finalCell(const CSymResult::PathOut &P, LocId Loc,
                        const std::string &Field) {
  const CSymValue *V = P.Store.get({Loc, Field});
  if (!V)
    return std::nullopt;
  return *V;
}
