// Cross-query artifact cache: the reusable products of one execution that
// the next execution of the same statement (or the same table) can skip.
//
// Two keyed stores behind one thread-safe LRU facade:
//
//  * Partitionings, keyed "table|tau policy|attributes", where the tau
//    policy is the configured PlannerOptions::partition_size_threshold
//    (0 = the default rows/10 rule) rather than the tau it resolves to, so
//    a batch that changes the row count does not move the key. Building
//    the offline partitioning dominates SKETCHREFINE's cost; every session
//    that shares this cache (the service catalog hands one to all of its
//    sessions) shares one partition tree per (table, policy, attributes)
//    instead of each session rebuilding its own, and the update path
//    absorbs each batch into that one tree.
//
//  * Per-statement artifacts, keyed by the catalog table's identity plus
//    the *normalized* query text (paql/normalize.h): the planner's
//    decision, the partitioning the plan used, and the warm-start root
//    basis of the final ILP solve (the PR 3/4 machinery, previously
//    trapped inside one Evaluate call). A repeated statement — the
//    dominant pattern of a multi-tenant serving workload — re-plans for
//    free and seeds its root LP from the previous optimal basis.
//
// Entries pin their table via shared_ptr, so a hit can never alias a
// different table that happens to reuse a registered name (lookups verify
// pointer identity). Results themselves are NOT cached: artifacts are
// semantics-preserving by construction (a warm basis or reused plan can
// never change an answer), whereas replaying packages would change
// observable stats/timings and tie cache correctness to option equality.
#ifndef PAQL_ENGINE_QUERY_CACHE_H_
#define PAQL_ENGINE_QUERY_CACHE_H_

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "engine/planner.h"
#include "lp/simplex.h"
#include "partition/partitioner.h"
#include "relation/column_source.h"
#include "relation/table.h"

namespace paql::engine {

/// Counters for one cache instance (a consistent snapshot under the lock).
struct QueryCacheStats {
  int64_t hits = 0;             // per-statement artifact hits
  int64_t misses = 0;           // per-statement artifact misses
  int64_t insertions = 0;       // per-statement entries stored (new keys)
  int64_t evictions = 0;        // per-statement LRU evictions
  int64_t partition_hits = 0;   // partition-registry hits
  int64_t partition_misses = 0; // partition-registry misses
  size_t entries = 0;           // live per-statement entries
  size_t partition_entries = 0; // live partition-registry entries
};

class QueryCache {
 public:
  struct Options {
    /// Per-statement artifact entries kept (least-recently-used evicted).
    size_t capacity = 128;
    /// Partition-registry entries kept. Partitionings are the largest
    /// artifacts held here, so the registry gets its own (smaller) bound.
    size_t partition_capacity = 32;
  };

  /// The reusable products of one statement's execution.
  struct Artifacts {
    /// Identity of the table the statement ran against; a lookup only
    /// hits when the caller's table is this exact instance.
    std::shared_ptr<const relation::ColumnSource> table;
    /// The planner's decision (strategy, partitioning policy, reason).
    std::optional<Plan> plan;
    /// The partitioning a SKETCHREFINE plan used (null for DIRECT plans).
    std::shared_ptr<const partition::Partitioning> partitioning;
    /// Root basis of the statement's final ILP solve; seeds the next
    /// identical solve's root LP (dual-simplex re-optimization).
    std::optional<lp::Basis> warm_basis;
  };

  QueryCache();
  explicit QueryCache(Options options);

  /// Per-statement artifacts for `key` (normalized query text; see
  /// Session::Execute for the exact composition). Counts a hit only when
  /// the entry exists AND its table is `table` — a name collision across
  /// catalogs is a miss, never a wrong hit.
  std::optional<Artifacts> Lookup(
      const std::string& key,
      const std::shared_ptr<const relation::ColumnSource>& table);

  /// Insert or refresh the artifacts for `key`, becoming most recent.
  void Store(const std::string& key, Artifacts artifacts);

  /// Partition registry: the shared successor of the per-session
  /// partition_cache_. Returns null on miss.
  std::shared_ptr<const partition::Partitioning> LookupPartitioning(
      const std::string& key);
  void StorePartitioning(
      const std::string& key,
      std::shared_ptr<const partition::Partitioning> partitioning);

  /// Every cached partitioning built for `table_name`, with its key: the
  /// registry entries whose key starts with "table_name|". How the update
  /// path (Session::ApplyUpdates) finds the partitionings to absorb a
  /// batch into, so it can store the rebuilt artifacts back under the same
  /// keys.
  std::vector<std::pair<std::string,
                        std::shared_ptr<const partition::Partitioning>>>
  PartitioningsFor(const std::string& table_name);

  /// Drop every entry touching `table_name`: per-statement artifacts
  /// (their plan and warm basis described the replaced table instance) and
  /// cached partitionings. Called when a catalog re-registers the name and
  /// by the update path before it deposits freshly-absorbed partitionings.
  /// Returns the number of entries dropped.
  size_t EvictTable(const std::string& table_name);

  /// Drop only the per-statement artifacts for `table_name`, keeping the
  /// partition registry (whose entries the update path refreshes in
  /// place). Returns the number of entries dropped.
  size_t EvictStatements(const std::string& table_name);

  QueryCacheStats stats() const;

  /// Drop every entry (counters are kept; `entries` snapshots go to 0).
  void Clear();

 private:
  template <typename Value>
  struct LruMap {
    struct Node {
      std::string key;
      Value value;
    };
    std::list<Node> order;  // most recent first
    std::unordered_map<std::string, typename std::list<Node>::iterator> index;

    Value* Touch(const std::string& key) {
      auto it = index.find(key);
      if (it == index.end()) return nullptr;
      order.splice(order.begin(), order, it->second);
      return &order.front().value;
    }
    size_t ErasePrefix(const std::string& prefix) {
      size_t dropped = 0;
      for (auto it = order.begin(); it != order.end();) {
        if (it->key.compare(0, prefix.size(), prefix) == 0) {
          index.erase(it->key);
          it = order.erase(it);
          ++dropped;
        } else {
          ++it;
        }
      }
      return dropped;
    }
    /// Returns true when the key was new (an insertion, not a refresh).
    bool Put(const std::string& key, Value value, size_t capacity,
             int64_t* evictions) {
      if (Value* existing = Touch(key)) {
        *existing = std::move(value);
        return false;
      }
      order.push_front(Node{key, std::move(value)});
      index[key] = order.begin();
      while (order.size() > capacity && capacity > 0) {
        index.erase(order.back().key);
        order.pop_back();
        if (evictions != nullptr) ++*evictions;
      }
      return true;
    }
  };

  Options options_;
  mutable std::mutex mu_;
  LruMap<Artifacts> artifacts_;
  LruMap<std::shared_ptr<const partition::Partitioning>> partitions_;
  QueryCacheStats stats_;
};

}  // namespace paql::engine

#endif  // PAQL_ENGINE_QUERY_CACHE_H_
