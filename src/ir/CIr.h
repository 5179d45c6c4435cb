//===--- CIr.h - Flat register-based bytecode for mini-C --------*- C++ -*-===//
//
// Part of the Mix reproduction of "Mixing Type Checking and Symbolic
// Execution" (PLDI 2010).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The mini-C bytecode: `CExpr`/`CStmt` function bodies lowered once per
/// function and interpreted by CSymExecutor (src/csym/CSymInterp.cpp)
/// against its `CSymState`-backed memory model. It is the only
/// way mini-C bodies execute. Its observable behavior — warnings, fresh
/// term numbering, object allocation order, trails, budget trips — is
/// pinned by the CLI goldens (tests/golden/) and the frozen digests in
/// tests/CIrDiffTest.cpp.
///
/// Shape:
///  - Every lowered expression leaves its value in a write-once register.
///    Registers hold either a `CSymValue` or the guarded cell list an
///    lvalue resolved to; locals themselves live in the store (LocId
///    cells), never in registers, so mutation does not break SSA.
///  - Control flow is *region-structured*: `branch` names then/else
///    statement sub-regions, `loop` names a condition region (whose
///    Result register is the condition value) and a body region. The
///    interpreter keeps a nested continuation order using CRegion::Spans
///    barriers — including the per-argument and per-statement prefix
///    spans the lowerer emits for call argument threading and block
///    statement sequencing.
///  - Every statement begins with a `stmt_entry` guard (returned states
///    skip, path-budget trips mark the run incomplete and skip) with a
///    backpatched skip target.
///  - Every construct lowers: an lvalue position that holds no lvalue
///    becomes `not_lvalue`, which warns and ends the path.
///
//===----------------------------------------------------------------------===//

#ifndef MIX_IR_CIR_H
#define MIX_IR_CIR_H

#include "cfront/CAst.h"
#include "support/SourceLoc.h"

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace mix {
namespace ir {

enum class COpcode : uint8_t {
  CStmtEntry,  ///< statement entry guard; Imm = skip-target instr index
  CConstInt,   ///< Dst = scalar(intConst(Imm)) (int literals, sizeof)
  CStr,        ///< Dst = pointer to a fresh "<string>" char object
  CNull,       ///< Dst = the definite null pointer
  CLoadIdent,  ///< Dst = rvalue of name Names[Aux] (function decay, local
               ///< /global cell read); 0 outcomes on unknown names
  CLValIdent,  ///< Dst = cells of name Names[Aux]; 0 outcomes on unknown
  CLValDeref,  ///< Dst = cells of *A (null check + path refinement)
  CLValArrow,  ///< Dst = cells of A->Names[Aux] (null check + refinement)
  CLValField,  ///< Dst = cells A with field Names[Aux] appended
  CNotLValue,  ///< warn "expression is not an lvalue" at Loc; 0 outcomes
               ///< (Dst is a cells register no instruction ever reads)
  CReadMerged, ///< Dst = ite-merged read of cells A (member rvalue);
               ///< 0 outcomes when A resolved to no cells
  CDerefRead,  ///< Dst = rvalue *A (function decay, null check, merge)
  CAddrOf,     ///< Dst = pointer over cells A; 0 outcomes when A is empty
  CNot,        ///< Dst = scalar(!truth(A))
  CNeg,        ///< Dst = scalar(-int(A))
  CBinOp,      ///< Dst = A <CBOp> B (evalBinaryValues)
  CStoreCells, ///< writeCells(cells A, value B); the assign's value is B
  CMalloc,     ///< Dst = pointer to a fresh object named Names[Aux] of
               ///< type Ty (null Ty / void pointee = int)
  CDeclLocal,  ///< declare local Names[Aux] (object name Names[Aux2]) of
               ///< type Ty; Dst = its single definite cell
  CInitLocal,  ///< strong-initialize the cell in A with value B
  CCall,       ///< Dst = call CallNode; Callee set = direct dispatch,
               ///< else A holds the evaluated callee pointer; arguments
               ///< are ArgRegs[ArgsBegin, ArgsBegin+ArgsCount)
  CBranch,     ///< if-statement on condition A; R1 = then region,
               ///< R2 = else region or CNoRegion; Loc2 = condition loc
  CLoop,       ///< while-statement; R1 = condition region (its Result is
               ///< the condition value), R2 = body; Loc2 = condition loc
  CReturn,     ///< return; A = value register or CNoReg
};

const char *copcodeName(COpcode Op);

constexpr uint32_t CNoReg = 0xffffffffu;
constexpr uint32_t CNoRegion = 0xffffffffu;

/// One mini-C instruction. Payloads stay separate fields rather than a
/// union: the interpreter's cost is dominated by solver terms and store
/// copies, not instruction streaming.
struct CInstr {
  COpcode Op = COpcode::CStmtEntry;
  c::CBinaryOp BOp = c::CBinaryOp::Add; ///< CBinOp payload
  uint32_t Dst = CNoReg;                ///< result register
  uint32_t A = CNoReg, B = CNoReg;      ///< operand registers
  uint32_t R1 = CNoRegion, R2 = CNoRegion; ///< sub-regions
  uint32_t Aux = 0;  ///< CIrFunction::Names index (names, fields)
  uint32_t Aux2 = 0; ///< CDeclLocal: Names index of the object name
  uint32_t ArgsBegin = 0, ArgsCount = 0; ///< CCall: ArgRegs slice
  long long Imm = 0; ///< CConstInt value; CStmtEntry skip target
  SourceLoc Loc;     ///< diagnostic location
  SourceLoc Loc2;    ///< CBranch/CLoop: condition location (trails)
  const c::CType *Ty = nullptr;        ///< CMalloc/CDeclLocal payload
  const c::CCall *CallNode = nullptr;  ///< CCall payload
  const c::CFuncDecl *Callee = nullptr; ///< CCall: direct callee
};

/// A straight-line instruction sequence. Statement regions fall through
/// with no value (Result = CNoReg); the loop condition region's Result
/// names the register holding the condition value.
struct CRegion {
  std::vector<CInstr> Code;
  uint32_t Result = CNoReg;

  /// Continuation barriers (see src/csym/CSymInterp.cpp): the
  /// [start, end) range of every lowered node, plus synthetic *prefix
  /// spans* — [call start, arg K end) per call argument and
  /// [block start, stmt K end) per block statement — so that after an
  /// instruction yields several outcomes, each later argument and each
  /// later statement runs for all of them before the next one.
  std::vector<std::pair<uint32_t, uint32_t>> Spans;
};

/// One lowered mini-C function body. Region 0 is the body statement;
/// identifier resolution stays dynamic (Names), because mini-C locals
/// are declared at run time and scope per execution path.
struct CIrFunction {
  const c::CFuncDecl *Func = nullptr;
  uint32_t NumRegs = 0;
  std::vector<CRegion> Regions;
  std::vector<std::string> Names;   ///< interned names/fields/labels
  std::vector<uint32_t> ArgRegs;    ///< pooled CCall argument registers
};

/// Lowers \p F's body to bytecode; null only when \p F has no body.
/// \p Program resolves direct callees and the malloc intrinsic.
std::unique_ptr<CIrFunction> lowerC(const c::CFuncDecl *F,
                                    const c::CProgram &Program);

/// Structural verifier: write-once registers, operands
/// defined before use and of the right class (value vs. cell list),
/// call arity against the AST node, skip targets in range, region tree
/// well-formed. Empty string = well-formed.
std::string verifyC(const CIrFunction &F);

/// Stable printer for golden tests and debugging.
std::string printC(const CIrFunction &F);

} // namespace ir
} // namespace mix

#endif // MIX_IR_CIR_H
