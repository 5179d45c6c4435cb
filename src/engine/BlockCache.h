//===--- BlockCache.h - Block-summary cache ---------------------*- C++ -*-===//
//
// Part of the Mix reproduction of "Mixing Type Checking and Symbolic
// Execution" (PLDI 2010).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The Section 4.3 cache — "we cache the translated types" of each block
/// per compatible calling context. One ordered map per cache: an analysis
/// runs on one thread, so the cache takes no locks.
///
/// The first insert for a key wins and later inserts of the same key are
/// dropped (and counted): block outcomes are deterministic per key, so
/// the dropped value is the same one.
///
/// This lives in the shared engine layer (src/engine/) so every mix
/// instantiation — formal MIX, MIXY-for-C, the sign mix — caches block
/// summaries through one implementation.
///
//===----------------------------------------------------------------------===//

#ifndef MIX_ENGINE_BLOCKCACHE_H
#define MIX_ENGINE_BLOCKCACHE_H

#include "observe/Metrics.h"

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>

namespace mix::engine {

/// Counter snapshot of one cache.
struct BlockCacheStats {
  uint64_t Hits = 0;
  uint64_t Misses = 0;
  uint64_t Inserts = 0;
  uint64_t DroppedInserts = 0; ///< insert found an existing entry
  /// Always 0: the cache is unbounded. Kept so the rendered stats (and
  /// the "<prefix>evictions" counter) keep their historical shape.
  uint64_t Evictions = 0;

  /// "hits=3 misses=5 inserts=5 dropped=0 evictions=0"-style rendering.
  std::string str() const;
};

/// A map from block calling contexts (ordered by \p Key's operator<) to
/// block summaries.
///
/// Counters are registry-backed (src/observe/): pass a MetricsRegistry
/// and a name prefix to surface "<prefix>hits", "<prefix>misses",
/// "<prefix>inserts", "<prefix>dropped", and "<prefix>evictions" in that
/// registry — the same numbers --stats renders and --trace/--metrics
/// export, by construction. Without a registry the cache owns a private
/// one, so stats() always works.
template <typename Key, typename Value> class BlockCache {
public:
  explicit BlockCache(obs::MetricsRegistry *Metrics = nullptr,
                      const std::string &Prefix = "blockcache.") {
    if (!Metrics) {
      OwnedMetrics = std::make_unique<obs::MetricsRegistry>();
      Metrics = OwnedMetrics.get();
    }
    CHits = Metrics->counter(Prefix + "hits");
    CMisses = Metrics->counter(Prefix + "misses");
    CInserts = Metrics->counter(Prefix + "inserts");
    CDropped = Metrics->counter(Prefix + "dropped");
    CEvictions = Metrics->counter(Prefix + "evictions");
  }

  /// Returns the cached summary for \p K, or nullopt on a miss.
  std::optional<Value> lookup(const Key &K) {
    auto It = Map.find(K);
    if (It == Map.end()) {
      CMisses.inc();
      return std::nullopt;
    }
    CHits.inc();
    return It->second;
  }

  /// Inserts \p K -> \p V. Returns true when this call created the entry;
  /// false when the key was already cached (the existing entry is kept).
  bool insert(const Key &K, Value V) {
    if (!Map.emplace(K, std::move(V)).second) {
      CDropped.inc();
      return false;
    }
    CInserts.inc();
    return true;
  }

  size_t size() const { return Map.size(); }

  void clear() { Map.clear(); }

  /// Counter totals, read from the backing registry.
  BlockCacheStats stats() const {
    BlockCacheStats Total;
    Total.Hits = CHits.value();
    Total.Misses = CMisses.value();
    Total.Inserts = CInserts.value();
    Total.DroppedInserts = CDropped.value();
    Total.Evictions = CEvictions.value();
    return Total;
  }

private:
  std::map<Key, Value> Map;
  /// Fallback registry when none was supplied (keeps stats() total).
  std::unique_ptr<obs::MetricsRegistry> OwnedMetrics;
  obs::Counter CHits, CMisses, CInserts, CDropped, CEvictions;
};

} // namespace mix::engine

#endif // MIX_ENGINE_BLOCKCACHE_H
