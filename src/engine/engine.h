// paql::Engine — the single entry point for evaluating package queries.
//
//   auto session = paql::Engine::Open(std::move(table));
//   auto result  = session->Execute(R"(
//       SELECT PACKAGE(R) AS P FROM Recipes R REPEAT 0
//       WHERE R.gluten = 'free'
//       SUCH THAT COUNT(P.*) = 3 AND SUM(P.kcal) BETWEEN 2.0 AND 2.5
//       MINIMIZE SUM(P.saturated_fat))");
//   if (result.ok()) std::cout << result->Materialize().ToString();
//
// Execute runs the whole pipeline — parse -> resolve/join FROM ->
// validate -> compile (PaQL -> ILP) -> plan -> evaluate — and the planner,
// not the caller, chooses between exact DIRECT and scalable SKETCHREFINE
// (building or reusing a partitioning as needed). The low-level strategy
// classes in core/ remain available for specialized callers, but every
// example and bench in this repo goes through the facade.
#ifndef PAQL_ENGINE_ENGINE_H_
#define PAQL_ENGINE_ENGINE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "core/from_clause.h"
#include "core/package.h"
#include "engine/evaluator.h"
#include "engine/exec_context.h"
#include "engine/planner.h"
#include "engine/query_cache.h"
#include "paql/validator.h"
#include "partition/partitioner.h"
#include "relation/block_cache.h"
#include "relation/column_source.h"
#include "relation/table.h"
#include "relation/table_version.h"
#include "relation/wal.h"

namespace paql {

/// Everything a session lets you tune. Defaults are sensible: unlimited
/// solver budgets, auto strategy selection, tau = 10% of the table.
struct EngineOptions {
  /// Strategy selection (thresholds, explicit override, partitioning
  /// policy, worker threads).
  engine::PlannerOptions planner;
  /// Execution settings shared by every strategy (solver budgets,
  /// branch-and-bound, cancellation, seed).
  engine::ExecContext exec;
  /// Multi-relation FROM materialization guard rails.
  core::FromClauseOptions from_clause;
  /// Language-fragment switches.
  lang::ValidateOptions validate;
  /// Decoded-block budget for out-of-core tables registered through
  /// AddTableFromDisk (shared across every disk table of the session).
  size_t block_cache_bytes = 256ull << 20;
};

/// The answer to one Execute call: the package, the plan that produced it,
/// and per-phase timings. Package row ids refer to `table` (the session
/// table, or the materialized join result for multi-relation queries).
struct QueryResult {
  core::Package package;
  double objective = 0;
  core::EvalStats stats;        // strategy-level statistics
  engine::Plan plan;            // what the planner chose and why
  engine::PhaseTimings timings; // parse/validate/compile/plan/evaluate
  std::shared_ptr<const relation::ColumnSource> table;

  /// The package as a relation with the input schema.
  relation::Table Materialize() const { return package.Materialize(*table); }
};

/// The outcome of one Session::ApplyUpdates call.
struct UpdateResult {
  /// The published snapshot (a relation::TableVersion); queries started
  /// before the update keep reading the previous snapshot.
  std::shared_ptr<const relation::ColumnSource> table;
  std::string table_name;     // the registered name the update resolved to
  uint64_t version = 0;       // the new snapshot's version number
  size_t rows_inserted = 0;
  size_t rows_deleted = 0;
  /// Cached partitionings of the table that absorbed the batch in place
  /// (vs being dropped and rebuilt on next use).
  size_t partitionings_updated = 0;
  /// Dirty groups across the updated partitionings (what incremental
  /// standing-query repair re-solves).
  size_t dirty_groups = 0;
  size_t standing_repaired = 0;     // standing queries refreshed
  size_t standing_incremental = 0;  // ... of which via ReEvaluatePackage
  double seconds = 0;
};

/// One registered standing query's current state (a snapshot; see
/// Session::Watch).
struct StandingQuery {
  uint64_t id = 0;
  std::string text;          // the registered PaQL statement
  std::string table_name;    // the FROM relation it watches
  core::Package package;     // latest answer (valid only when `valid`)
  double objective = 0;
  bool valid = false;
  std::string error;         // why `valid` is false (e.g. infeasible)
  uint64_t version = 0;      // table version the answer reflects
  size_t repairs = 0;        // batches that refreshed this query
  size_t incremental_repairs = 0;  // ... repaired via ReEvaluatePackage
};

/// A session: an open catalog of tables plus cached partitionings and
/// per-session options. Create with Engine::Open, then Execute PaQL text.
///
/// Thread safety: once a session is set up (tables registered, options
/// configured), Execute / ExecuteTopK / PlanQuery / Explain / DumpLp may
/// run concurrently from many threads — the table map and join cache are
/// internally synchronized and the artifact cache is a thread-safe
/// QueryCache. ApplyUpdates may also run concurrently with queries: it
/// publishes a new copy-on-write snapshot, so an in-flight Execute keeps
/// reading the version it resolved (writers serialize with each other).
/// options() mutation is not synchronized: configure before sharing the
/// session across threads (the service scheduler clones per-query sessions
/// precisely so each query can carry its own options).
class Session {
 public:
  /// Run one PaQL query end to end (parse -> validate -> compile -> plan
  /// -> evaluate). Returns the answer package, kInfeasible when no package
  /// satisfies the constraints, kResourceExhausted on budget exhaustion,
  /// or the parse/validation error.
  Result<QueryResult> Execute(std::string_view paql);

  /// Enumerate the k best distinct packages (REPEAT 0 + objective queries
  /// only), best first, each at least `min_difference` tuple swaps apart.
  Result<std::vector<QueryResult>> ExecuteTopK(std::string_view paql,
                                               size_t k,
                                               int64_t min_difference = 1);

  /// The planner's choice for `paql` (strategy, reason, partitioning
  /// details) without solving anything. Builds/caches the partitioning a
  /// SKETCHREFINE plan would use, so the report shows real group counts.
  Result<engine::Plan> PlanQuery(std::string_view paql);

  /// The evaluation plan for `paql` — the planner's choice plus the
  /// strategy-level problem shape (translated ILP or partitioning plan) —
  /// without solving anything.
  Result<std::string> Explain(std::string_view paql);

  /// Write the translated whole-problem ILP in CPLEX LP format (for
  /// external solvers). Fails on ratio objectives (no linear translation).
  Status DumpLp(std::string_view paql, std::ostream& os);

  /// Register another relation for multi-table FROM clauses. Fails with
  /// kInvalidArgument when the name is already taken.
  Status AddTable(std::string name, relation::Table table);

  /// Same, sharing an externally-owned table instead of copying it (how
  /// the service catalog hands one table instance to every session).
  Status AddTable(std::string name,
                  std::shared_ptr<const relation::ColumnSource> table);

  /// Read a CSV file and register it under its basename (sans extension).
  Status AddTableFromCsv(const std::string& path);

  /// Open a block-store file (relation/block_store.h) and register it as
  /// an out-of-core table under its basename. Scans read through the
  /// session's shared block cache (options().block_cache_bytes), so the
  /// decoded working set stays bounded regardless of the table size.
  Status AddTableFromDisk(const std::string& path);

  /// The session's shared block cache (created on first AddTableFromDisk;
  /// null until then). Exposed for cache hit/miss reporting.
  const std::shared_ptr<relation::BlockCache>& block_cache() const {
    return block_cache_;
  }

  /// Apply one batch of inserts/deletes/updates to a registered table and
  /// publish the result as a new copy-on-write snapshot. Queries already
  /// executing keep reading the snapshot they resolved; queries that start
  /// after this returns see the new version. The call also
  ///  * absorbs the batch into every cached partitioning of the table
  ///    (partition::AbsorbBatch), keeping SKETCHREFINE's offline artifact
  ///    warm instead of invalidating it;
  ///  * evicts the table's per-statement artifacts (their plans and warm
  ///    bases described the replaced snapshot);
  ///  * repairs every standing query watching the table (incrementally,
  ///    via core::ReEvaluatePackage over the dirty groups, when the plan
  ///    and cached partitioning allow it; by full re-execution otherwise).
  /// Writers are serialized with each other; concurrent Execute calls are
  /// safe and never observe a half-applied batch.
  Result<UpdateResult> ApplyUpdates(const std::string& table_name,
                                    const relation::TableDelta& delta);

  /// Register `paql` as a standing query: it is executed immediately and
  /// re-evaluated after every ApplyUpdates batch touching its table.
  /// Returns the watch id. An initially infeasible query is still
  /// registered (valid=false until data makes it feasible).
  Result<uint64_t> Watch(std::string_view paql);

  /// Remove a standing query. Returns false when the id is unknown.
  bool Unwatch(uint64_t id);

  /// Open (or create) the write-ahead log in `options.dir` and start
  /// logging: every committed ApplyUpdates batch and every Watch/Unwatch
  /// from now on is appended (and fsynced per `options.sync`) *before* it
  /// becomes visible to readers, so a crash loses at most the configured
  /// sync window. Call RecoverFromWal first when the directory may hold a
  /// previous incarnation's log. Fails when durability is already on.
  Status EnableDurability(const relation::WalOptions& options);

  /// Replay the write-ahead log in `options.dir` into this session. Every
  /// logged delta re-applies through the normal ApplyUpdates path —
  /// partitionings absorb the batch and standing queries are repaired per
  /// batch, exactly as on the live path — and the standing-query set is
  /// re-registered under its original ids, so the recovered session is
  /// indistinguishable from one that never crashed. Requires the tables
  /// at their pre-log base state and durability not yet enabled (nothing
  /// replayed is re-logged); a torn final record is the normal crash
  /// signature and replay stops cleanly before it (prefix durability). A
  /// version mismatch between a logged delta and the table it applies to
  /// fails recovery with kCorruption.
  Result<relation::WalReplayStats> RecoverFromWal(
      const relation::WalOptions& options);

  /// The open log writer (null until EnableDurability); exposed for
  /// append/sync statistics.
  const relation::WalWriter* wal() const { return wal_.get(); }

  /// Snapshot of one / all registered standing queries.
  Result<StandingQuery> GetStandingQuery(uint64_t id) const;
  std::vector<StandingQuery> standing_queries() const;

  /// The current snapshot of a registered table — the same forgiving
  /// lookup queries use (exact name, then case-insensitive). Callers that
  /// build a TableDelta (paql_shell's \insert) read the schema from it.
  Result<std::shared_ptr<const relation::ColumnSource>> GetTable(
      const std::string& name) const;

  /// Mutable session options; changes apply to subsequent Execute calls.
  EngineOptions& options() { return options_; }
  const EngineOptions& options() const { return options_; }

  /// Names of the registered tables (sorted).
  std::vector<std::string> table_names() const;

  /// The cross-query artifact cache this session reads and feeds:
  /// partitionings (keyed by table, tau policy and attributes — one per
  /// policy, absorbed in place by ApplyUpdates) and per-statement artifacts —
  /// plan, partition tree, warm-start root basis — keyed by normalized
  /// query text. Engine::Open gives every session a private cache; the
  /// service catalog replaces it with one process-wide instance so
  /// sessions warm each other. Replacing the cache mid-stream is safe
  /// (entries are self-validating), but do it before sharing the session
  /// across threads.
  const std::shared_ptr<engine::QueryCache>& query_cache() const {
    return cache_;
  }
  void set_query_cache(std::shared_ptr<engine::QueryCache> cache) {
    if (cache != nullptr) cache_ = std::move(cache);
  }

 private:
  friend class Engine;

  struct ResolvedQuery {
    lang::PackageQuery ast;    // single-relation (joins materialized)
    std::shared_ptr<const relation::ColumnSource> table;
    std::string table_name;    // registered name; empty for join results
    std::string normalized_text;  // canonical statement (cache keying)
    bool joined_from = false;
  };

  Session() = default;

  /// parse + resolve/join FROM + validate + compile, with timings.
  Result<ResolvedQuery> Resolve(std::string_view paql,
                                engine::PhaseTimings* timings);
  Result<engine::CompiledQuery> CompileResolved(
      const ResolvedQuery& resolved, engine::PhaseTimings* timings);

  /// Look up (or build and cache) the partitioning a SKETCHREFINE plan
  /// needs, and record its details in `plan`.
  Result<std::shared_ptr<const partition::Partitioning>> PartitioningFor(
      const ResolvedQuery& resolved, engine::Plan* plan);

  /// Construct the strategy adapter `plan` names. `reuse_partitioning`
  /// (may be null) short-circuits the partitioning lookup — the cross-query
  /// cache hit path; `used_partitioning` (may be null) receives whichever
  /// partitioning the strategy was built over, for storing back.
  Result<std::unique_ptr<engine::PackageEvaluator>> MakeStrategy(
      const ResolvedQuery& resolved, engine::Plan* plan,
      std::shared_ptr<const partition::Partitioning> reuse_partitioning =
          nullptr,
      std::shared_ptr<const partition::Partitioning>* used_partitioning =
          nullptr);

  /// The cross-query cache key for one resolved statement: table identity,
  /// canonical text, and a planner-options fingerprint (two sessions that
  /// plan differently must not trade plans).
  std::string ArtifactKey(const ResolvedQuery& resolved) const;

  /// The last materialized multi-relation join, keyed by the normalized
  /// query text (size-1 cache: it serves the repeat-same-statement pattern
  /// without holding many large join results alive).
  struct JoinCacheEntry {
    std::string normalized_text;
    lang::PackageQuery ast;
    std::shared_ptr<const relation::ColumnSource> table;
  };

  /// Mutable state that concurrent Execute calls share, behind one mutex
  /// (a pointer so Session stays movable).
  struct SyncState {
    /// Guards tables_, join_cache, and the standing-query registry. Held
    /// only for map/registry access, never across a solve.
    std::mutex mu;
    /// Serializes ApplyUpdates writers with each other (readers keep
    /// running under snapshot isolation). Ordered before `mu`: an updater
    /// holds update_mu for the whole batch and takes mu briefly around
    /// each shared-state access.
    std::mutex update_mu;
    std::optional<JoinCacheEntry> join_cache;
    std::map<uint64_t, StandingQuery> standing;
    uint64_t next_watch_id = 1;
  };

  /// Watch with the id chosen by the caller (0 = assign the next free
  /// one). The forced-id path is how WAL replay re-registers standing
  /// queries under their original ids.
  Result<uint64_t> WatchInternal(std::string_view paql, uint64_t forced_id);

  /// Re-execute or incrementally repair one standing query after a batch
  /// (called with update_mu held, mu released). `dirty` maps partition
  /// cache keys to the batch's dirty group ids for that partitioning.
  void RepairStandingQuery(StandingQuery* sq, uint64_t version,
                           const std::map<std::string,
                                          std::vector<uint32_t>>& dirty,
                           UpdateResult* report);

  std::map<std::string, std::shared_ptr<const relation::ColumnSource>> tables_;
  std::shared_ptr<relation::BlockCache> block_cache_;
  /// Write-ahead log; null until EnableDurability. Shared so copies of a
  /// durable session (the service clones per-query sessions) append to
  /// the same log. `wal_replaying_` suppresses re-logging during replay;
  /// recovery runs single-threaded before the session is shared.
  std::shared_ptr<relation::WalWriter> wal_;
  bool wal_replaying_ = false;
  std::shared_ptr<engine::QueryCache> cache_ =
      std::make_shared<engine::QueryCache>();
  std::shared_ptr<SyncState> sync_ = std::make_shared<SyncState>();
  EngineOptions options_;
};

/// The facade's only constructor surface.
class Engine {
 public:
  /// Open a session over one in-memory table, registered under `name`
  /// (queries whose FROM names don't match fall back to the only table of
  /// a single-table session, so the paper's examples run as written).
  static Result<Session> Open(relation::Table table, std::string name = "R",
                              EngineOptions options = {});

  /// Same, sharing an externally-owned table instead of copying it (used
  /// by the benches, whose tables are large and outlive the session).
  static Result<Session> Open(std::shared_ptr<const relation::ColumnSource> table,
                              std::string name = "R",
                              EngineOptions options = {});

  /// Open a session over a CSV file; the relation is named after the file
  /// basename without extension.
  static Result<Session> OpenCsv(const std::string& path,
                                 EngineOptions options = {});

  /// Open a session over a block-store file (relation/block_store.h): the
  /// relation is an out-of-core DiskTable reading through the session's
  /// block cache (options.block_cache_bytes), named after the file
  /// basename without extension.
  static Result<Session> OpenDisk(const std::string& path,
                                  EngineOptions options = {});
};

}  // namespace paql

#endif  // PAQL_ENGINE_ENGINE_H_
