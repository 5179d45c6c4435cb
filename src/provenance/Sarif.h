//===--- Sarif.h - SARIF 2.1.0 export of diagnostics ------------*- C++ -*-===//
//
// Part of the Mix reproduction of "Mixing Type Checking and Symbolic
// Execution" (PLDI 2010).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Renders a DiagnosticEngine as a SARIF 2.1.0 document (the --format=sarif
/// surface of both CLIs). Errors and warnings become `results`; their
/// structurally attached notes become `relatedLocations`; provenance
/// payloads become `codeFlows`/`threadFlows` (witness paths and qualifier
/// flow chains, mix-boundary edges labeled) plus a `properties` bag
/// carrying the path condition, solver model, and block context.
///
/// Results are ordered by (line, column, id) — the same order the sorted
/// JSON renderer uses — so the two machine formats carry identical
/// locations in identical order regardless of emission order.
///
//===----------------------------------------------------------------------===//

#ifndef MIX_PROVENANCE_SARIF_H
#define MIX_PROVENANCE_SARIF_H

#include "support/Diagnostics.h"

#include <string>

namespace mix::prov {

struct SarifOptions {
  std::string ToolName = "mix";   ///< runs[].tool.driver.name
  std::string ArtifactUri;        ///< analyzed input; empty renders no artifact
};

/// Renders \p Diags as one SARIF 2.1.0 document.
std::string renderSarif(const DiagnosticEngine &Diags,
                        const SarifOptions &Opts);

} // namespace mix::prov

#endif // MIX_PROVENANCE_SARIF_H
