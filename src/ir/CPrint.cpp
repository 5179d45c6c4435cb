//===--- CPrint.cpp - Stable printer for the mini-C bytecode --------------===//
//
// Part of the Mix reproduction of "Mixing Type Checking and Symbolic
// Execution" (PLDI 2010).
//
//===----------------------------------------------------------------------===//

#include "ir/CIr.h"

#include <sstream>

using namespace mix;
using namespace mix::ir;

const char *ir::copcodeName(COpcode Op) {
  switch (Op) {
  case COpcode::CStmtEntry:
    return "stmt_entry";
  case COpcode::CConstInt:
    return "const_int";
  case COpcode::CStr:
    return "str";
  case COpcode::CNull:
    return "null";
  case COpcode::CLoadIdent:
    return "load_ident";
  case COpcode::CLValIdent:
    return "lval_ident";
  case COpcode::CLValDeref:
    return "lval_deref";
  case COpcode::CLValArrow:
    return "lval_arrow";
  case COpcode::CLValField:
    return "lval_field";
  case COpcode::CNotLValue:
    return "not_lvalue";
  case COpcode::CReadMerged:
    return "read_merged";
  case COpcode::CDerefRead:
    return "deref_read";
  case COpcode::CAddrOf:
    return "addr_of";
  case COpcode::CNot:
    return "not";
  case COpcode::CNeg:
    return "neg";
  case COpcode::CBinOp:
    return "binop";
  case COpcode::CStoreCells:
    return "store_cells";
  case COpcode::CMalloc:
    return "malloc";
  case COpcode::CDeclLocal:
    return "decl_local";
  case COpcode::CInitLocal:
    return "init_local";
  case COpcode::CCall:
    return "call";
  case COpcode::CBranch:
    return "branch";
  case COpcode::CLoop:
    return "loop";
  case COpcode::CReturn:
    return "ret";
  }
  return "<bad opcode>";
}

namespace {

void printLoc(std::ostringstream &OS, SourceLoc Loc) {
  if (Loc.isValid())
    OS << " @" << Loc.str();
}

void printName(std::ostringstream &OS, const CIrFunction &F, uint32_t Idx) {
  OS << "'" << (Idx < F.Names.size() ? F.Names[Idx] : "<bad name index>")
     << "'";
}

void printRegion(std::ostringstream &OS, uint32_t R) {
  if (R == CNoRegion)
    OS << "r<none>";
  else
    OS << "r" << R;
}

void printInstr(std::ostringstream &OS, const CIrFunction &F,
                const CInstr &In) {
  OS << "  ";
  switch (In.Op) {
  case COpcode::CStmtEntry:
    OS << "stmt_entry skip=" << In.Imm;
    printLoc(OS, In.Loc);
    break;
  case COpcode::CConstInt:
    OS << "%" << In.Dst << " = const_int " << In.Imm;
    break;
  case COpcode::CStr:
    OS << "%" << In.Dst << " = str";
    printLoc(OS, In.Loc);
    break;
  case COpcode::CNull:
    OS << "%" << In.Dst << " = null";
    break;
  case COpcode::CLoadIdent:
    OS << "%" << In.Dst << " = load_ident ";
    printName(OS, F, In.Aux);
    printLoc(OS, In.Loc);
    break;
  case COpcode::CLValIdent:
    OS << "%" << In.Dst << " = lval_ident ";
    printName(OS, F, In.Aux);
    printLoc(OS, In.Loc);
    break;
  case COpcode::CLValDeref:
    OS << "%" << In.Dst << " = lval_deref %" << In.A;
    printLoc(OS, In.Loc);
    break;
  case COpcode::CLValArrow:
    OS << "%" << In.Dst << " = lval_arrow %" << In.A << " ";
    printName(OS, F, In.Aux);
    printLoc(OS, In.Loc);
    break;
  case COpcode::CLValField:
    OS << "%" << In.Dst << " = lval_field %" << In.A << " ";
    printName(OS, F, In.Aux);
    printLoc(OS, In.Loc);
    break;
  case COpcode::CNotLValue:
    OS << "%" << In.Dst << " = not_lvalue";
    printLoc(OS, In.Loc);
    break;
  case COpcode::CReadMerged:
    OS << "%" << In.Dst << " = read_merged %" << In.A;
    printLoc(OS, In.Loc);
    break;
  case COpcode::CDerefRead:
    OS << "%" << In.Dst << " = deref_read %" << In.A;
    printLoc(OS, In.Loc);
    break;
  case COpcode::CAddrOf:
    OS << "%" << In.Dst << " = addr_of %" << In.A;
    printLoc(OS, In.Loc);
    break;
  case COpcode::CNot:
    OS << "%" << In.Dst << " = not %" << In.A;
    break;
  case COpcode::CNeg:
    OS << "%" << In.Dst << " = neg %" << In.A;
    break;
  case COpcode::CBinOp:
    OS << "%" << In.Dst << " = binop '" << c::cBinaryOpSpelling(In.BOp)
       << "' %" << In.A << " %" << In.B;
    printLoc(OS, In.Loc);
    break;
  case COpcode::CStoreCells:
    OS << "store_cells %" << In.A << " := %" << In.B;
    printLoc(OS, In.Loc);
    break;
  case COpcode::CMalloc:
    OS << "%" << In.Dst << " = malloc ";
    printName(OS, F, In.Aux);
    OS << " : " << (In.Ty ? In.Ty->str() : "int");
    printLoc(OS, In.Loc);
    break;
  case COpcode::CDeclLocal:
    OS << "%" << In.Dst << " = decl_local ";
    printName(OS, F, In.Aux);
    OS << " obj=";
    printName(OS, F, In.Aux2);
    OS << " : " << (In.Ty ? In.Ty->str() : "<none>");
    printLoc(OS, In.Loc);
    break;
  case COpcode::CInitLocal:
    OS << "init_local %" << In.A << " := %" << In.B;
    break;
  case COpcode::CCall:
    OS << "%" << In.Dst << " = call ";
    if (In.Callee)
      OS << "'" << In.Callee->name() << "'";
    else
      OS << "%" << In.A;
    OS << " (";
    for (uint32_t I = 0; I < In.ArgsCount; ++I) {
      if (I)
        OS << ", ";
      OS << "%" << F.ArgRegs[In.ArgsBegin + I];
    }
    OS << ")";
    printLoc(OS, In.Loc);
    break;
  case COpcode::CBranch:
    OS << "branch %" << In.A << " ? ";
    printRegion(OS, In.R1);
    OS << " : ";
    printRegion(OS, In.R2);
    printLoc(OS, In.Loc);
    printLoc(OS, In.Loc2);
    break;
  case COpcode::CLoop:
    OS << "loop cond=";
    printRegion(OS, In.R1);
    OS << " body=";
    printRegion(OS, In.R2);
    printLoc(OS, In.Loc);
    printLoc(OS, In.Loc2);
    break;
  case COpcode::CReturn:
    OS << "ret";
    if (In.A != CNoReg)
      OS << " %" << In.A;
    printLoc(OS, In.Loc);
    break;
  }
  OS << "\n";
}

} // namespace

std::string ir::printC(const CIrFunction &F) {
  std::ostringstream OS;
  OS << "cfunc " << (F.Func ? F.Func->name() : "<none>")
     << " regs=" << F.NumRegs << " regions=" << F.Regions.size() << "\n";
  for (size_t R = 0; R < F.Regions.size(); ++R) {
    OS << "region " << R << ":\n";
    for (const CInstr &In : F.Regions[R].Code)
      printInstr(OS, F, In);
    if (F.Regions[R].Result != CNoReg)
      OS << "  result %" << F.Regions[R].Result << "\n";
  }
  return OS.str();
}
