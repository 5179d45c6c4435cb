//===--- CVerify.cpp - Structural verifier for the mini-C bytecode --------===//
//
// Part of the Mix reproduction of "Mixing Type Checking and Symbolic
// Execution" (PLDI 2010).
//
//===----------------------------------------------------------------------===//
//
// Checks that registers are written once and defined before use, that
// sub-regions form a tree (each referenced once, none unreachable), and
// the mini-C-specific invariants: registers are classed as *value* (a CSymValue) or *cells* (an lvalue's
// guarded cell list) and every operand must be of the right class; call
// arity must match the AST node; stmt_entry skip targets must stay
// inside the region and move forward.
//
//===----------------------------------------------------------------------===//

#include "ir/CIr.h"

using namespace mix;
using namespace mix::ir;

namespace {

enum class RegClass : uint8_t { Undef, Value, Cells };

struct CVerifier {
  const CIrFunction &F;
  std::vector<unsigned> RegionRefs; // times each region was entered
  std::vector<RegClass> Class;      // write-once, so global per register
  std::string Err;

  bool fail(uint32_t R, size_t I, std::string Msg) {
    Err = "region " + std::to_string(R) + ", instr " + std::to_string(I) +
          ": " + std::move(Msg);
    return false;
  }

  bool use(uint32_t R, size_t I, uint32_t Reg, RegClass Want,
           const std::vector<char> &Def) {
    if (Reg >= F.NumRegs)
      return fail(R, I, "register %" + std::to_string(Reg) +
                            " out of range");
    if (!Def[Reg])
      return fail(R, I, "use of undefined register %" +
                            std::to_string(Reg));
    if (Class[Reg] != Want)
      return fail(R, I, "operand %" + std::to_string(Reg) +
                            (Want == RegClass::Cells
                                 ? " is not a cell list"
                                 : " is not a value"));
    return true;
  }

  bool def(uint32_t R, size_t I, uint32_t Reg, RegClass C,
           std::vector<char> &Def) {
    if (Reg >= F.NumRegs)
      return fail(R, I, "register %" + std::to_string(Reg) +
                            " out of range");
    if (Def[Reg])
      return fail(R, I, "register %" + std::to_string(Reg) +
                            " written twice");
    Def[Reg] = 1;
    Class[Reg] = C;
    return true;
  }

  bool name(uint32_t R, size_t I, uint32_t Idx) {
    if (Idx >= F.Names.size())
      return fail(R, I, "name index " + std::to_string(Idx) +
                            " out of range");
    return true;
  }

  /// Walks one region with the defined-register set at its entry.
  /// Sub-regions see a copy (their definitions are path-local);
  /// \p DefOut, when given, receives the set at region end.
  bool verifyRegion(uint32_t R, std::vector<char> Def,
                    std::vector<char> *DefOut = nullptr) {
    if (R >= F.Regions.size()) {
      Err = "region r" + std::to_string(R) + " out of range";
      return false;
    }
    if (++RegionRefs[R] > 1) {
      Err = "region r" + std::to_string(R) + " referenced more than once";
      return false;
    }
    const CRegion &Reg = F.Regions[R];
    for (size_t I = 0; I < Reg.Code.size(); ++I) {
      const CInstr &In = Reg.Code[I];
      switch (In.Op) {
      case COpcode::CStmtEntry:
        if (In.Imm < (long long)I + 1 ||
            In.Imm > (long long)Reg.Code.size())
          return fail(R, I, "stmt_entry skip target " +
                                std::to_string(In.Imm) + " out of range");
        break;
      case COpcode::CConstInt:
      case COpcode::CStr:
      case COpcode::CNull:
        if (!def(R, I, In.Dst, RegClass::Value, Def))
          return false;
        break;
      case COpcode::CLoadIdent:
        if (!name(R, I, In.Aux) ||
            !def(R, I, In.Dst, RegClass::Value, Def))
          return false;
        break;
      case COpcode::CLValIdent:
        if (!name(R, I, In.Aux) ||
            !def(R, I, In.Dst, RegClass::Cells, Def))
          return false;
        break;
      case COpcode::CNotLValue:
        if (!def(R, I, In.Dst, RegClass::Cells, Def))
          return false;
        break;
      case COpcode::CLValDeref:
        if (!use(R, I, In.A, RegClass::Value, Def) ||
            !def(R, I, In.Dst, RegClass::Cells, Def))
          return false;
        break;
      case COpcode::CLValArrow:
        if (!name(R, I, In.Aux) ||
            !use(R, I, In.A, RegClass::Value, Def) ||
            !def(R, I, In.Dst, RegClass::Cells, Def))
          return false;
        break;
      case COpcode::CLValField:
        if (!name(R, I, In.Aux) ||
            !use(R, I, In.A, RegClass::Cells, Def) ||
            !def(R, I, In.Dst, RegClass::Cells, Def))
          return false;
        break;
      case COpcode::CReadMerged:
        if (!use(R, I, In.A, RegClass::Cells, Def) ||
            !def(R, I, In.Dst, RegClass::Value, Def))
          return false;
        break;
      case COpcode::CDerefRead:
        if (!use(R, I, In.A, RegClass::Value, Def) ||
            !def(R, I, In.Dst, RegClass::Value, Def))
          return false;
        break;
      case COpcode::CAddrOf:
        if (!use(R, I, In.A, RegClass::Cells, Def) ||
            !def(R, I, In.Dst, RegClass::Value, Def))
          return false;
        break;
      case COpcode::CNot:
      case COpcode::CNeg:
        if (!use(R, I, In.A, RegClass::Value, Def) ||
            !def(R, I, In.Dst, RegClass::Value, Def))
          return false;
        break;
      case COpcode::CBinOp:
        if (!use(R, I, In.A, RegClass::Value, Def) ||
            !use(R, I, In.B, RegClass::Value, Def) ||
            !def(R, I, In.Dst, RegClass::Value, Def))
          return false;
        break;
      case COpcode::CStoreCells:
        if (!use(R, I, In.A, RegClass::Cells, Def) ||
            !use(R, I, In.B, RegClass::Value, Def))
          return false;
        break;
      case COpcode::CMalloc:
        if (!name(R, I, In.Aux) ||
            !def(R, I, In.Dst, RegClass::Value, Def))
          return false;
        break;
      case COpcode::CDeclLocal:
        if (!In.Ty)
          return fail(R, I, "decl_local without a declared type");
        if (!name(R, I, In.Aux) || !name(R, I, In.Aux2) ||
            !def(R, I, In.Dst, RegClass::Cells, Def))
          return false;
        break;
      case COpcode::CInitLocal:
        if (!use(R, I, In.A, RegClass::Cells, Def) ||
            !use(R, I, In.B, RegClass::Value, Def))
          return false;
        break;
      case COpcode::CCall: {
        if (!In.CallNode)
          return fail(R, I, "call without an AST node");
        if (In.ArgsCount != In.CallNode->args().size())
          return fail(R, I,
                      "call arity " + std::to_string(In.ArgsCount) +
                          " does not match the AST node's " +
                          std::to_string(In.CallNode->args().size()));
        if ((size_t)In.ArgsBegin + In.ArgsCount > F.ArgRegs.size())
          return fail(R, I, "call argument slice out of range");
        for (uint32_t A = 0; A < In.ArgsCount; ++A)
          if (!use(R, I, F.ArgRegs[In.ArgsBegin + A], RegClass::Value,
                   Def))
            return false;
        if (!In.Callee && !use(R, I, In.A, RegClass::Value, Def))
          return false;
        if (!def(R, I, In.Dst, RegClass::Value, Def))
          return false;
        break;
      }
      case COpcode::CBranch:
        if (!use(R, I, In.A, RegClass::Value, Def))
          return false;
        if (!verifyRegion(In.R1, Def))
          return false;
        if (In.R2 != CNoRegion && !verifyRegion(In.R2, Def))
          return false;
        break;
      case COpcode::CLoop: {
        std::vector<char> AfterCond;
        if (!verifyRegion(In.R1, Def, &AfterCond))
          return false;
        const CRegion &Cond = F.Regions[In.R1];
        if (Cond.Result >= F.NumRegs || !AfterCond[Cond.Result] ||
            Class[Cond.Result] != RegClass::Value)
          return fail(R, I, "loop condition region r" +
                                std::to_string(In.R1) +
                                " does not produce a value result");
        // The body runs after a condition evaluation each round.
        if (!verifyRegion(In.R2, std::move(AfterCond)))
          return false;
        break;
      }
      case COpcode::CReturn:
        if (In.A != CNoReg && !use(R, I, In.A, RegClass::Value, Def))
          return false;
        break;
      }
    }
    if (Reg.Result != CNoReg &&
        (Reg.Result >= F.NumRegs || !Def[Reg.Result]))
      return fail(R, Reg.Code.size(),
                  "region result %" + std::to_string(Reg.Result) +
                      " is not defined at region end");
    for (auto [S, E] : Reg.Spans)
      if (S > E || E > Reg.Code.size())
        return fail(R, Reg.Code.size(),
                    "span [" + std::to_string(S) + ", " +
                        std::to_string(E) + ") out of range");
    if (DefOut)
      *DefOut = std::move(Def);
    return true;
  }
};

} // namespace

std::string ir::verifyC(const CIrFunction &F) {
  if (F.Regions.empty())
    return "function has no regions";
  if (!F.Func)
    return "function has no AST node";
  CVerifier V{F, std::vector<unsigned>(F.Regions.size(), 0),
              std::vector<RegClass>(F.NumRegs, RegClass::Undef), ""};
  if (!V.verifyRegion(0, std::vector<char>(F.NumRegs, 0)))
    return V.Err;
  for (size_t R = 0; R < F.Regions.size(); ++R)
    if (!V.RegionRefs[R])
      return "region r" + std::to_string(R) + " is unreachable";
  return "";
}
