//===--- PersistSession.h - The persistent analysis cache -------*- C++ -*-===//
//
// Part of the Mix reproduction of "Mixing Type Checking and Symbolic
// Execution" (PLDI 2010).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The on-disk analysis cache behind --cache-dir (and --incremental), the
/// cross-run counterpart of the in-memory BlockCache of Section 4.3.
/// One PersistSession wraps one cache directory and owns three stores,
/// each a RecordFile on disk:
///
///  - SolverQueryStore ("solver.mixcache"): Sat/Unsat verdicts keyed by
///    canonicalQueryHash. Plugged into every SmtSolver through
///    SmtOptions::Cache.
///  - BlockSummaryStore ("blocks.mixcache"): opaque block-summary
///    payloads keyed by a stable block key (MIXY encodes its SymOutcome
///    plus the diagnostics the block run emitted — replaying them on a
///    hit keeps warm diagnostics byte-identical to a cold run).
///  - Manifest ("manifest.mixcache"): per-function content and
///    dependency-closure hashes from the previous run, which is what
///    --incremental diffs to report how much of the program actually
///    needed re-analysis.
///
/// Failure contract: everything here is a cache of deterministic
/// recomputations, so every failure mode (missing file, corruption,
/// version skew, unwritable directory) degrades to a cold run — the
/// session records one human-readable reason, the driver surfaces it as
/// a single MIX502 note, and the analysis result is unchanged. Loads and
/// stores are mutex-guarded; saves publish via atomic rename, so two
/// processes sharing a --cache-dir race benignly (last rename wins,
/// readers never see a torn file).
///
//===----------------------------------------------------------------------===//

#ifndef MIX_PERSIST_PERSISTSESSION_H
#define MIX_PERSIST_PERSISTSESSION_H

#include "observe/Metrics.h"
#include "solver/SmtSolver.h"

#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

namespace mix::persist {

/// Configuration of a PersistSession.
struct PersistOptions {
  /// The cache directory (created if absent).
  std::string Dir;
  /// Load/store block summaries and diff the manifest (--incremental).
  bool Incremental = false;
  /// Digest of the analysis options that affect block summaries; stores
  /// written under different options load as empty, not as corrupt.
  uint64_t BlockFingerprint = 0;
  /// Counters/latency land here ("persist.*"); null disables.
  obs::MetricsRegistry *Metrics = nullptr;
  /// Keep every store in memory only, without a cache directory: no disk
  /// I/O, save() succeeds as a no-op, never degraded. This is how mixyd
  /// keeps summaries warm across requests when no --cache-dir is given.
  bool InMemory = false;
};

/// The persistent Sat/Unsat memo (thread-safe; see smt::QueryCache).
class SolverQueryStore final : public smt::QueryCache {
public:
  explicit SolverQueryStore(obs::MetricsRegistry *Metrics);

  bool lookup(uint64_t Key, smt::SolveResult &Out) override;
  void store(uint64_t Key, smt::SolveResult Result) override;

  size_t size() const;

  /// RecordFile payloads (one per entry) / their inverse. decode returns
  /// false on a malformed payload.
  std::vector<std::string> encode() const;
  bool decode(const std::vector<std::string> &Records);

private:
  mutable std::mutex M;
  std::unordered_map<uint64_t, uint8_t> Map; ///< 0 = Sat, 1 = Unsat
  obs::Counter CHits, CMisses, CStores;
};

/// The persistent block-summary store. Payloads are opaque byte strings:
/// the analysis that owns the summaries (MIXY) encodes and decodes them,
/// so this layer needs no knowledge of SymOutcome or diagnostics.
///
/// Mark-on-use: an entry is marked when a lookup hits it or a store
/// writes it, and encode() writes only marked entries. Keys embed the
/// dependency-closure hash, so an entry the run never touched belongs to
/// code that has since changed; it is dropped at the next save instead
/// of accumulating across edits.
class BlockSummaryStore {
public:
  explicit BlockSummaryStore(obs::MetricsRegistry *Metrics);

  std::optional<std::string> lookup(uint64_t Key);
  void store(uint64_t Key, std::string Payload);

  /// Every entry held, marked or not.
  size_t size() const;
  void clear();

  /// RecordFile payloads for the marked entries / the inverse, which
  /// loads every entry unmarked.
  std::vector<std::string> encode() const;
  bool decode(const std::vector<std::string> &Records);

private:
  struct Entry {
    std::string Payload;
    bool Used = false;
  };
  mutable std::mutex M;
  std::unordered_map<uint64_t, Entry> Map;
  obs::Counter CHits, CMisses, CStores;
};

/// Per-function hashes from one run, diffed across runs by --incremental.
struct Manifest {
  struct Func {
    uint64_t ContentHash = 0;
    uint64_t ClosureHash = 0;
  };
  std::map<std::string, Func> Funcs;

  std::vector<std::string> encode() const;
  bool decode(const std::vector<std::string> &Records);
};

/// One cache directory, opened for one tool run.
class PersistSession {
public:
  explicit PersistSession(PersistOptions Opts);

  /// Non-empty when any store was rejected (corruption, version skew,
  /// unusable directory): the single degradation reason the driver
  /// reports. The session still works — it just started cold.
  const std::string &degradedReason() const { return DegradedReason; }

  bool incremental() const { return Opts.Incremental; }

  SolverQueryStore &solverCache() { return Solver; }
  BlockSummaryStore &blocks() { return Blocks; }

  /// The manifest loaded from the previous run (empty on a cold start).
  const Manifest &previousManifest() const { return Previous; }
  /// Sets this run's manifest, written back by save().
  void setCurrentManifest(Manifest M) { Current = std::move(M); }

  /// Writes all stores back to the cache directory (bumping the on-disk
  /// generation stamp). Returns false with \p Error set on the first file
  /// that could not be written (the run's findings are unaffected either
  /// way). In-memory sessions succeed without touching disk.
  bool save(std::string *Error = nullptr);

  /// The generation this session loaded (0 on a cold start); each save()
  /// publishes generation + 1. Sessions opened before the stamp existed
  /// observe generation 0, matching the historical single-writer world.
  uint64_t generation() const { return Gen; }

  /// True when another writer has published into this cache directory
  /// since this session loaded it — i.e. the on-disk generation no longer
  /// matches generation(). A long-lived process must not keep replaying
  /// its loaded manifest/summaries past this point: reopen the directory
  /// (fresh PersistSession) or call invalidateSummaries(). Always false
  /// for in-memory and unusable-directory sessions.
  bool externallyModified() const;

  /// Drops the loaded manifest and every block summary (the solver store
  /// survives: verdicts are keyed by the formula alone, so they can never
  /// go stale when source files change). Used by the daemon when a client
  /// reports a file changed.
  void invalidateSummaries();

private:
  PersistOptions Opts;
  SolverQueryStore Solver;
  BlockSummaryStore Blocks;
  Manifest Previous, Current;
  std::string DegradedReason;
  bool DirUsable = false;
  uint64_t Gen = 0;
};

} // namespace mix::persist

#endif // MIX_PERSIST_PERSISTSESSION_H
