#include "engine/engine.h"

#include <algorithm>
#include <sstream>
#include <utility>

#include "common/stopwatch.h"
#include "common/str_util.h"
#include "core/explain.h"
#include "core/incremental.h"
#include "partition/dynamic_update.h"
#include "core/topk.h"
#include "engine/evaluators.h"
#include "lp/lp_format.h"
#include "paql/normalize.h"
#include "paql/parser.h"
#include "partition/partitioner.h"
#include "relation/csv.h"
#include "relation/disk_table.h"

namespace paql {

using engine::CompiledQuery;
using engine::ExecContext;
using engine::PhaseTimings;
using engine::Plan;
using engine::Planner;
using engine::QueryShape;
using engine::Strategy;

// ---------------------------------------------------------------------------
// Engine
// ---------------------------------------------------------------------------

Result<Session> Engine::Open(relation::Table table, std::string name,
                             EngineOptions options) {
  return Open(std::make_shared<const relation::Table>(std::move(table)),
              std::move(name), std::move(options));
}

Result<Session> Engine::Open(std::shared_ptr<const relation::ColumnSource> table,
                             std::string name, EngineOptions options) {
  if (name.empty()) {
    return Status::InvalidArgument("table name must not be empty");
  }
  if (table == nullptr) {
    return Status::InvalidArgument("table must not be null");
  }
  Session session;
  session.options_ = std::move(options);
  session.tables_.emplace(std::move(name), std::move(table));
  return session;
}

namespace {

/// The partition-registry cache key for one (table, policy): shared by the
/// read path (PartitioningFor) and the update path (ApplyUpdates,
/// standing-query repair), which must agree on it byte for byte. `tau` is
/// the *configured* PlannerOptions::partition_size_threshold (0 = the
/// default rows/10 rule), not the value that rule resolves to: the
/// resolved tau moves with every batch that changes the row count, and a
/// key that moved with it would strand the absorbed partitioning under the
/// old key and rebuild a fresh one on the next read.
std::string PartitionRegistryKey(const std::string& table_name, size_t tau,
                                 const std::vector<std::string>& attributes) {
  std::ostringstream os;
  os << table_name << "|" << tau;
  for (const auto& attr : attributes) os << "|" << attr;
  return os.str();
}

std::string CsvBaseName(const std::string& path) {
  size_t slash = path.find_last_of("/\\");
  std::string name =
      slash == std::string::npos ? path : path.substr(slash + 1);
  size_t dot = name.find_last_of('.');
  if (dot != std::string::npos) name = name.substr(0, dot);
  return name;
}

}  // namespace

Result<Session> Engine::OpenCsv(const std::string& path,
                                EngineOptions options) {
  PAQL_ASSIGN_OR_RETURN(relation::Table table, relation::ReadCsv(path));
  return Open(std::move(table), CsvBaseName(path), std::move(options));
}

Result<Session> Engine::OpenDisk(const std::string& path,
                                 EngineOptions options) {
  relation::BlockCache::Options copts;
  copts.capacity_bytes = options.block_cache_bytes;
  auto cache = std::make_shared<relation::BlockCache>(copts);
  PAQL_ASSIGN_OR_RETURN(std::shared_ptr<relation::DiskTable> table,
                        relation::DiskTable::Open(path, cache));
  PAQL_ASSIGN_OR_RETURN(
      Session session,
      Open(std::move(table), CsvBaseName(path), std::move(options)));
  // Subsequent AddTableFromDisk calls share this cache.
  session.block_cache_ = std::move(cache);
  return session;
}

// ---------------------------------------------------------------------------
// Session: FROM resolution + compilation
// ---------------------------------------------------------------------------

Status Session::AddTable(std::string name, relation::Table table) {
  return AddTable(std::move(name), std::make_shared<const relation::Table>(
                                       std::move(table)));
}

Status Session::AddTable(std::string name,
                         std::shared_ptr<const relation::ColumnSource> table) {
  if (name.empty()) {
    return Status::InvalidArgument("table name must not be empty");
  }
  if (table == nullptr) {
    return Status::InvalidArgument("table must not be null");
  }
  std::lock_guard<std::mutex> lock(sync_->mu);
  auto [it, inserted] = tables_.emplace(std::move(name), std::move(table));
  if (!inserted) {
    return Status::InvalidArgument(
        StrCat("table '", it->first, "' is already registered"));
  }
  return Status::OK();
}

Status Session::AddTableFromCsv(const std::string& path) {
  auto table = relation::ReadCsv(path);
  if (!table.ok()) return table.status();
  return AddTable(CsvBaseName(path), std::move(*table));
}

Status Session::AddTableFromDisk(const std::string& path) {
  if (block_cache_ == nullptr) {
    relation::BlockCache::Options copts;
    copts.capacity_bytes = options_.block_cache_bytes;
    block_cache_ = std::make_shared<relation::BlockCache>(copts);
  }
  auto table = relation::DiskTable::Open(path, block_cache_);
  if (!table.ok()) return table.status();
  return AddTable(CsvBaseName(path), std::move(*table));
}

std::vector<std::string> Session::table_names() const {
  std::lock_guard<std::mutex> lock(sync_->mu);
  std::vector<std::string> names;
  names.reserve(tables_.size());
  for (const auto& [name, table] : tables_) names.push_back(name);
  return names;
}

Result<Session::ResolvedQuery> Session::Resolve(std::string_view paql,
                                                PhaseTimings* timings) {
  Stopwatch parse_watch;
  auto parsed = lang::ParsePackageQuery(paql);
  if (timings) timings->parse_seconds = parse_watch.ElapsedSeconds();
  if (!parsed.ok()) return parsed.status();

  Stopwatch resolve_watch;
  ResolvedQuery out;
  out.normalized_text = lang::NormalizeQueryText(paql);
  if (parsed->more_relations.empty()) {
    // Single-relation query: bind the table without copying it. Name
    // resolution is forgiving on purpose — the paper's examples write
    // `FROM Recipes R` against whatever the caller registered — so: exact
    // match, then case-insensitive match, then the only table of a
    // single-table session. The lock pins one consistent snapshot: a
    // concurrent ApplyUpdates publishes a new version by swapping the map
    // entry, and this query keeps the shared_ptr it copied here.
    std::lock_guard<std::mutex> lock(sync_->mu);
    auto it = tables_.find(parsed->relation_name);
    if (it == tables_.end()) {
      for (auto probe = tables_.begin(); probe != tables_.end(); ++probe) {
        if (EqualsIgnoreCase(probe->first, parsed->relation_name)) {
          it = probe;
          break;
        }
      }
    }
    if (it == tables_.end() && tables_.size() == 1) it = tables_.begin();
    if (it == tables_.end()) {
      return Status::NotFound(
          StrCat("FROM relation '", parsed->relation_name,
                 "' is not registered in this session"));
    }
    out.ast = std::move(*parsed);
    out.table = it->second;
    out.table_name = it->first;
  } else {
    // The join cache is keyed by the *normalized* statement, so any
    // re-spelling of the same join (case, whitespace) reuses the
    // materialized result. ApplyUpdates clears the cache when it publishes
    // a new table version, so a cached result cannot go stale; the mutex
    // makes repeat-statement storms from concurrent Execute calls safe.
    bool join_hit = false;
    {
      std::lock_guard<std::mutex> lock(sync_->mu);
      if (sync_->join_cache.has_value() &&
          sync_->join_cache->normalized_text == out.normalized_text) {
        out.ast = sync_->join_cache->ast.Clone();
        out.table = sync_->join_cache->table;
        out.joined_from = true;
        join_hit = true;
      }
    }
    if (!join_hit) {
      // Multi-relation query: materialize the join (paper §4.5) and
      // rewrite the query against the join result. The snapshot copy keeps
      // every joined table alive (and consistent) even if a concurrent
      // ApplyUpdates swaps a map entry mid-materialization.
      std::map<std::string, std::shared_ptr<const relation::ColumnSource>>
          snapshot;
      {
        std::lock_guard<std::mutex> lock(sync_->mu);
        snapshot = tables_;
      }
      core::Catalog catalog;
      for (const auto& [name, table] : snapshot) {
        // The join materializer builds hash tables over concrete in-memory
        // columns; out-of-core tables are not joinable (yet).
        const auto* in_memory =
            dynamic_cast<const relation::Table*>(table.get());
        if (in_memory == nullptr) {
          return Status::Unsupported(
              StrCat("multi-relation FROM: table '", name,
                     "' is out-of-core; joins need in-memory tables"));
        }
        catalog[name] = in_memory;
      }
      auto materialized =
          core::MaterializeFromClause(*parsed, catalog, options_.from_clause);
      if (!materialized.ok()) return materialized.status();
      out.ast = std::move(materialized->query);
      out.table = std::make_shared<const relation::Table>(
          std::move(materialized->table));
      out.joined_from = true;
      std::lock_guard<std::mutex> lock(sync_->mu);
      sync_->join_cache =
          JoinCacheEntry{out.normalized_text, out.ast.Clone(), out.table};
    }
  }
  if (timings) timings->resolve_seconds += resolve_watch.ElapsedSeconds();
  return out;
}

Result<CompiledQuery> Session::CompileResolved(const ResolvedQuery& resolved,
                                               PhaseTimings* timings) {
  Stopwatch compile_watch;
  auto compiled = CompiledQuery::Compile(
      resolved.ast, resolved.table->schema(), options_.validate);
  if (timings) timings->compile_seconds = compile_watch.ElapsedSeconds();
  return compiled;
}

// ---------------------------------------------------------------------------
// Session: planning
// ---------------------------------------------------------------------------

Result<std::shared_ptr<const partition::Partitioning>>
Session::PartitioningFor(const ResolvedQuery& resolved, Plan* plan) {
  Planner planner(options_.planner);
  std::vector<std::string> attributes =
      planner.PartitionAttributes(*resolved.table);
  if (attributes.empty()) {
    return Status::InvalidArgument(
        "SKETCHREFINE needs at least one numeric partitioning attribute, "
        "and the table has none");
  }
  size_t tau = planner.PartitionSizeThreshold(*resolved.table);
  plan->partition_attributes = attributes;
  plan->partition_size_threshold = tau;

  // Joined tables are per-query; only named session tables are cacheable.
  // The registry lives in the (possibly process-wide) QueryCache, so every
  // session sharing the cache shares one partition tree per policy.
  std::string key;
  bool publish = !resolved.joined_from;
  if (publish) {
    key = PartitionRegistryKey(resolved.table_name,
                               options_.planner.partition_size_threshold,
                               attributes);
    if (auto hit = cache_->LookupPartitioning(key)) {
      // A cached partitioning is only reusable when it groups every live
      // row of the snapshot this query resolved: a session holding an
      // older snapshot must not read a partitioning that ApplyUpdates
      // already advanced (past its row space, or past a delete-only batch
      // whose rows are still live here), and vice versa.
      if (hit->CoversLiveRows(*resolved.table)) {
        // An absorbed partitioning keeps the tau it was built under.
        plan->partitioning_reused = true;
        plan->partition_size_threshold = hit->size_threshold;
        plan->partition_groups = hit->num_groups();
        return hit;
      }
      // Spanning this row space without covering it means the entry was
      // absorbed past this snapshot: readers of the newer version keep it,
      // and this reader's rebuild stays private.
      publish = hit->gid.size() < resolved.table->num_rows();
    }
  }

  partition::PartitionOptions popts;
  popts.attributes = attributes;
  popts.size_threshold = tau;
  popts.threads = options_.exec.EffectiveThreads();
  auto built = partition::PartitionTable(*resolved.table, popts);
  if (!built.ok()) return built.status();
  auto partitioning =
      std::make_shared<const partition::Partitioning>(std::move(*built));
  plan->partition_groups = partitioning->num_groups();
  if (publish) cache_->StorePartitioning(key, partitioning);
  return partitioning;
}

std::string Session::ArtifactKey(const ResolvedQuery& resolved) const {
  const engine::PlannerOptions& p = options_.planner;
  std::ostringstream os;
  // '\x1F' (unit separator) cannot appear in table names or query text, so
  // the three sections can never collide by concatenation.
  os << resolved.table_name << '\x1F' << resolved.normalized_text << '\x1F'
     << engine::StrategyName(p.force) << '|' << p.direct_row_threshold << '|'
     << p.partition_size_threshold;
  for (const auto& attr : p.partition_attributes) os << '|' << attr;
  return os.str();
}

Result<std::unique_ptr<engine::PackageEvaluator>> Session::MakeStrategy(
    const ResolvedQuery& resolved, Plan* plan,
    std::shared_ptr<const partition::Partitioning> reuse_partitioning,
    std::shared_ptr<const partition::Partitioning>* used_partitioning) {
  using engine::DirectStrategy;
  using engine::LpRoundingStrategy;
  using engine::RatioObjectiveStrategy;
  using engine::SketchRefineStrategy;

  switch (plan->strategy) {
    case Strategy::kDirect:
      return std::unique_ptr<engine::PackageEvaluator>(
          new DirectStrategy(resolved.table));
    case Strategy::kLpRounding:
      return std::unique_ptr<engine::PackageEvaluator>(
          new LpRoundingStrategy(resolved.table));
    case Strategy::kRatioObjective:
      return std::unique_ptr<engine::PackageEvaluator>(
          new RatioObjectiveStrategy(resolved.table));
    case Strategy::kSketchRefine: {
      std::shared_ptr<const partition::Partitioning> partitioning =
          std::move(reuse_partitioning);
      if (partitioning != nullptr) {
        plan->partitioning_reused = true;
        plan->partition_groups = partitioning->num_groups();
      } else {
        PAQL_ASSIGN_OR_RETURN(partitioning, PartitioningFor(resolved, plan));
      }
      if (used_partitioning != nullptr) *used_partitioning = partitioning;
      return std::unique_ptr<engine::PackageEvaluator>(
          new SketchRefineStrategy(resolved.table, std::move(partitioning)));
    }
    case Strategy::kAuto:
      break;
  }
  return Status::Internal("planner returned no executable strategy");
}

// ---------------------------------------------------------------------------
// Session: execution entry points
// ---------------------------------------------------------------------------

Result<QueryResult> Session::Execute(std::string_view paql) {
  Stopwatch total;
  QueryResult out;
  PAQL_ASSIGN_OR_RETURN(ResolvedQuery resolved, Resolve(paql, &out.timings));
  PAQL_ASSIGN_OR_RETURN(CompiledQuery compiled,
                        CompileResolved(resolved, &out.timings));

  Stopwatch plan_watch;
  // Cross-query cache probe: a prior execution of this exact normalized
  // statement (same table instance, same planner options — both are in the
  // key/lookup) donates its plan, partitioning, and warm-start root basis.
  // Joined FROMs materialize a per-query table, so they never participate.
  const std::string artifact_key = ArtifactKey(resolved);
  std::optional<engine::QueryCache::Artifacts> cached;
  if (!resolved.joined_from) {
    cached = cache_->Lookup(artifact_key, resolved.table);
  }

  QueryShape shape;
  shape.ratio_objective = compiled.ratio_objective;
  shape.joined_from = resolved.joined_from;
  if (cached.has_value() && cached->plan.has_value()) {
    out.plan = *cached->plan;
    out.plan.plan_cached = true;
  } else {
    Planner planner(options_.planner);
    out.plan = planner.Decide(*resolved.table, shape);
  }
  out.plan.exec_threads = options_.exec.EffectiveThreads();
  std::shared_ptr<const partition::Partitioning> used_partitioning;
  PAQL_ASSIGN_OR_RETURN(
      std::unique_ptr<engine::PackageEvaluator> strategy,
      MakeStrategy(resolved, &out.plan,
                   cached.has_value() ? cached->partitioning : nullptr,
                   &used_partitioning));
  out.timings.plan_seconds = plan_watch.ElapsedSeconds();

  // The warm carrier: seeded from the cache on a hit, and — hit or miss —
  // it collects this solve's root basis for the next identical statement.
  // chain=false is the cross-query contract (presolve stays on; see
  // IlpWarmStart). A dimension mismatch inside the solver silently cold
  // starts, so a stale basis can slow a solve but never corrupt one.
  ExecContext exec = options_.exec;
  ilp::IlpWarmStart warm_local;
  warm_local.chain = false;
  if (exec.branch_and_bound.warm_start && cached.has_value() &&
      cached->warm_basis.has_value()) {
    warm_local.root_basis = *cached->warm_basis;
    out.plan.warm_cached = true;
  }
  exec.warm_basis = &warm_local;

  Stopwatch eval_watch;
  auto result = strategy->Evaluate(compiled, exec);
  out.timings.evaluate_seconds = eval_watch.ElapsedSeconds();
  // Drain the storage-fault channel before trusting the outcome: the scan
  // accessors have no error path, so an out-of-core source that hit
  // unreadable bytes served placeholder lanes and recorded the failure
  // here. The structured Status (store path, column, block) outranks
  // whatever the solver concluded from those lanes — including a
  // "feasible" package built on zeros, or an Infeasible verdict caused
  // by them. Zone-pruned corrupt blocks are never decoded, so queries
  // that prune past the damage pass this check and succeed.
  PAQL_RETURN_IF_ERROR(resolved.table->ConsumeError());
  if (!result.ok()) return result.status();

  out.package = std::move(result->package);
  out.objective = result->objective;
  out.stats = result->stats;
  if (!resolved.joined_from) {
    out.stats.cache_hits = cached.has_value() ? 1 : 0;
    out.stats.cache_misses = cached.has_value() ? 0 : 1;
  }
  out.table = resolved.table;

  // Belt and braces for every strategy: the facade only returns packages
  // that satisfy the query (base predicate, REPEAT bound, and all global
  // constraints — the `ilp` artifact carries them even for ratio queries).
  Status valid =
      core::ValidatePackage(compiled.ilp, *resolved.table, out.package);
  // Validation re-reads the package rows; it may touch blocks the scan
  // pruned, so drain the fault channel again before judging its verdict.
  PAQL_RETURN_IF_ERROR(resolved.table->ConsumeError());
  if (!valid.ok()) {
    return Status::Internal(StrCat("strategy ",
                                   engine::StrategyName(out.plan.strategy),
                                   " returned an invalid package: ",
                                   valid.message()));
  }

  // Deposit this execution's artifacts (only after validation: a strategy
  // bug must not poison the cache). The stored plan drops the cache marks
  // so a later hit reports its own provenance.
  if (!resolved.joined_from) {
    engine::QueryCache::Artifacts artifacts;
    artifacts.table = resolved.table;
    artifacts.plan = out.plan;
    artifacts.plan->plan_cached = false;
    artifacts.plan->warm_cached = false;
    artifacts.partitioning = used_partitioning;
    if (warm_local.root_basis.valid) {
      artifacts.warm_basis = std::move(warm_local.root_basis);
    }
    cache_->Store(artifact_key, std::move(artifacts));
  }
  out.timings.total_seconds = total.ElapsedSeconds();
  return out;
}

Result<std::vector<QueryResult>> Session::ExecuteTopK(std::string_view paql,
                                                      size_t k,
                                                      int64_t min_difference) {
  Stopwatch total;
  PhaseTimings timings;
  PAQL_ASSIGN_OR_RETURN(ResolvedQuery resolved, Resolve(paql, &timings));
  PAQL_ASSIGN_OR_RETURN(CompiledQuery compiled,
                        CompileResolved(resolved, &timings));
  if (compiled.ratio_objective) {
    return Status::Unsupported(
        "top-k enumeration does not support ratio (AVG) objectives");
  }

  Stopwatch plan_watch;
  QueryShape shape;
  shape.joined_from = resolved.joined_from;
  shape.topk = k;
  Planner planner(options_.planner);
  Plan plan = planner.Decide(*resolved.table, shape);
  plan.exec_threads = options_.exec.EffectiveThreads();
  timings.plan_seconds = plan_watch.ElapsedSeconds();

  const auto* in_memory =
      dynamic_cast<const relation::Table*>(resolved.table.get());
  if (in_memory == nullptr) {
    return Status::Unsupported(
        "top-k enumeration needs an in-memory table (out-of-core tables "
        "are limited to single-package strategies)");
  }

  Stopwatch eval_watch;
  core::TopKOptions topts;
  static_cast<ExecContext&>(topts) = options_.exec;
  topts.k = k;
  topts.min_difference = min_difference;
  auto enumerated =
      core::EnumerateTopPackages(*in_memory, compiled.ilp, topts);
  timings.evaluate_seconds = eval_watch.ElapsedSeconds();
  if (!enumerated.ok()) return enumerated.status();
  timings.total_seconds = total.ElapsedSeconds();

  std::vector<QueryResult> out;
  out.reserve(enumerated->size());
  for (core::EvalResult& result : *enumerated) {
    QueryResult qr;
    qr.package = std::move(result.package);
    qr.objective = result.objective;
    qr.stats = result.stats;
    qr.plan = plan;
    qr.timings = timings;
    qr.table = resolved.table;
    out.push_back(std::move(qr));
  }
  return out;
}

Result<Plan> Session::PlanQuery(std::string_view paql) {
  PAQL_ASSIGN_OR_RETURN(ResolvedQuery resolved, Resolve(paql, nullptr));
  PAQL_ASSIGN_OR_RETURN(CompiledQuery compiled,
                        CompileResolved(resolved, nullptr));
  QueryShape shape;
  shape.ratio_objective = compiled.ratio_objective;
  shape.joined_from = resolved.joined_from;
  Planner planner(options_.planner);
  Plan plan = planner.Decide(*resolved.table, shape);
  plan.exec_threads = options_.exec.EffectiveThreads();
  if (plan.uses_partitioning()) {
    PAQL_ASSIGN_OR_RETURN(auto partitioning,
                          PartitioningFor(resolved, &plan));
    (void)partitioning;
  }
  return plan;
}

Result<std::string> Session::Explain(std::string_view paql) {
  PAQL_ASSIGN_OR_RETURN(ResolvedQuery resolved, Resolve(paql, nullptr));
  PAQL_ASSIGN_OR_RETURN(CompiledQuery compiled,
                        CompileResolved(resolved, nullptr));

  QueryShape shape;
  shape.ratio_objective = compiled.ratio_objective;
  shape.joined_from = resolved.joined_from;
  Planner planner(options_.planner);
  Plan plan = planner.Decide(*resolved.table, shape);
  plan.exec_threads = options_.exec.EffectiveThreads();

  std::ostringstream os;
  if (plan.uses_partitioning()) {
    PAQL_ASSIGN_OR_RETURN(auto partitioning, PartitioningFor(resolved, &plan));
    PAQL_ASSIGN_OR_RETURN(std::string sketch_refine,
                          core::ExplainSketchRefine(compiled.ilp,
                                                    *resolved.table,
                                                    *partitioning));
    os << plan.Explain() << "\n" << sketch_refine;
  } else {
    os << plan.Explain() << "\n"
       << core::ExplainDirect(compiled.ilp, *resolved.table);
  }
  return os.str();
}

// ---------------------------------------------------------------------------
// Session: streaming updates + standing queries
// ---------------------------------------------------------------------------

Result<std::shared_ptr<const relation::ColumnSource>> Session::GetTable(
    const std::string& name) const {
  std::lock_guard<std::mutex> lock(sync_->mu);
  auto it = tables_.find(name);
  if (it == tables_.end()) {
    for (auto probe = tables_.begin(); probe != tables_.end(); ++probe) {
      if (EqualsIgnoreCase(probe->first, name)) {
        it = probe;
        break;
      }
    }
  }
  if (it == tables_.end()) {
    return Status::NotFound(
        StrCat("table '", name, "' is not registered in this session"));
  }
  return it->second;
}

Result<UpdateResult> Session::ApplyUpdates(const std::string& table_name,
                                           const relation::TableDelta& delta) {
  Stopwatch total;
  // Writers serialize with each other; readers are never blocked — they
  // keep the snapshot shared_ptr they copied out of tables_ in Resolve.
  std::lock_guard<std::mutex> writers(sync_->update_mu);

  std::string name;
  std::shared_ptr<const relation::ColumnSource> current;
  {
    std::lock_guard<std::mutex> lock(sync_->mu);
    auto it = tables_.find(table_name);
    if (it == tables_.end()) {
      for (auto probe = tables_.begin(); probe != tables_.end(); ++probe) {
        if (EqualsIgnoreCase(probe->first, table_name)) {
          it = probe;
          break;
        }
      }
    }
    if (it == tables_.end()) {
      return Status::NotFound(StrCat("table '", table_name,
                                     "' is not registered in this session"));
    }
    name = it->first;
    current = it->second;
  }

  // Wrap-or-advance the version chain, validating the whole batch before
  // anything becomes visible (a bad row or double delete mutates nothing).
  std::shared_ptr<const relation::TableVersion> base_version =
      std::dynamic_pointer_cast<const relation::TableVersion>(current);
  if (base_version == nullptr) {
    PAQL_ASSIGN_OR_RETURN(base_version, relation::TableVersion::Wrap(current));
  }
  PAQL_ASSIGN_OR_RETURN(std::shared_ptr<const relation::TableVersion> next,
                        base_version->Apply(delta));

  UpdateResult out;
  out.table = next;
  out.table_name = name;
  out.version = next->version();
  out.rows_inserted = delta.inserts.size();
  out.rows_deleted = delta.deletes.size();

  // Absorb the batch into every cached partitioning of the table — all of
  // them before any is stored, so a failure publishes nothing. A cached
  // partitioning lagging behind this batch's base (a concurrent query
  // deposited one built against an older snapshot) sees the extra rows as
  // plain appends; deletes past its row space are simply not in any group.
  std::map<std::string, std::vector<uint32_t>> dirty_by_key;
  std::vector<std::pair<std::string,
                        std::shared_ptr<const partition::Partitioning>>>
      absorbed;
  for (auto& [key, partitioning] : cache_->PartitioningsFor(name)) {
    std::vector<relation::RowId> deletes_in_range;
    for (relation::RowId r : delta.deletes) {
      if (r < partitioning->gid.size()) deletes_in_range.push_back(r);
    }
    PAQL_ASSIGN_OR_RETURN(
        partition::AbsorbResult ar,
        partition::AbsorbBatch(*next, *partitioning, deletes_in_range));
    out.dirty_groups += ar.dirty_groups.size();
    dirty_by_key[key] = std::move(ar.dirty_groups);
    absorbed.emplace_back(key,
                          std::make_shared<const partition::Partitioning>(
                              std::move(ar.partitioning)));
  }

  // Durability point: the committed batch reaches the log (and disk, per
  // the sync policy) before any reader can observe it. A failed append
  // fails the whole batch with nothing published — the caller retries
  // against the unchanged snapshot, and the possibly-torn log prefix is
  // exactly what replay's torn-tail handling expects.
  if (wal_ != nullptr && !wal_replaying_) {
    relation::WalRecord record;
    record.kind = relation::WalRecord::Kind::kDelta;
    record.table = name;
    record.base_version = base_version->version();
    record.delta = delta;
    PAQL_RETURN_IF_ERROR(wal_->Append(record));
  }

  // Publish: swap the snapshot, refresh the partition registry, drop the
  // statement artifacts (their plans and warm bases described the old
  // snapshot) and the join cache (joined results embed the old rows).
  cache_->EvictStatements(name);
  for (auto& [key, partitioning] : absorbed) {
    cache_->StorePartitioning(key, std::move(partitioning));
    ++out.partitionings_updated;
  }
  std::vector<StandingQuery> to_repair;
  {
    std::lock_guard<std::mutex> lock(sync_->mu);
    tables_[name] = next;
    sync_->join_cache.reset();
    for (const auto& [id, sq] : sync_->standing) {
      if (sq.table_name == name) to_repair.push_back(sq);
    }
  }

  // Keep the standing queries fresh. Repairs run on copies outside the
  // registry lock (a repair executes queries); results are written back by
  // id, so a concurrent Unwatch simply wins.
  for (StandingQuery& sq : to_repair) {
    RepairStandingQuery(&sq, out.version, dirty_by_key, &out);
  }
  if (!to_repair.empty()) {
    std::lock_guard<std::mutex> lock(sync_->mu);
    for (StandingQuery& sq : to_repair) {
      auto it = sync_->standing.find(sq.id);
      if (it != sync_->standing.end()) it->second = std::move(sq);
    }
  }
  out.seconds = total.ElapsedSeconds();
  return out;
}

void Session::RepairStandingQuery(
    StandingQuery* sq, uint64_t version,
    const std::map<std::string, std::vector<uint32_t>>& dirty,
    UpdateResult* report) {
  ++report->standing_repaired;
  ++sq->repairs;
  sq->version = version;

  // The incremental path: a valid previous answer, a single-relation
  // non-ratio query the planner still sends to SKETCHREFINE, and a cached
  // partitioning that just absorbed the batch. Everything else (first
  // feasible answer after an infeasible stretch, DIRECT-planned tables,
  // ratio objectives) re-executes in full.
  if (sq->valid) {
    auto incremental = [&]() -> Result<bool> {
      PAQL_ASSIGN_OR_RETURN(ResolvedQuery resolved, Resolve(sq->text, nullptr));
      if (resolved.joined_from) return false;
      PAQL_ASSIGN_OR_RETURN(CompiledQuery compiled,
                            CompileResolved(resolved, nullptr));
      if (compiled.ratio_objective) return false;
      QueryShape shape;
      shape.ratio_objective = compiled.ratio_objective;
      Planner planner(options_.planner);
      Plan plan = planner.Decide(*resolved.table, shape);
      if (!plan.uses_partitioning()) return false;
      std::vector<std::string> attributes =
          planner.PartitionAttributes(*resolved.table);
      auto dirty_groups = dirty.find(PartitionRegistryKey(
          resolved.table_name, options_.planner.partition_size_threshold,
          attributes));
      if (dirty_groups == dirty.end()) return false;
      auto partitioning = cache_->LookupPartitioning(dirty_groups->first);
      if (partitioning == nullptr ||
          partitioning->gid.size() != resolved.table->num_rows()) {
        return false;
      }
      core::IncrementalOptions iopts;
      static_cast<ExecContext&>(iopts.sketch_refine) = options_.exec;
      iopts.sketch_refine.warm_basis = nullptr;
      PAQL_ASSIGN_OR_RETURN(
          core::IncrementalResult inc,
          core::ReEvaluatePackage(*resolved.table, *partitioning,
                                  compiled.ilp, sq->package,
                                  dirty_groups->second, iopts));
      sq->package = std::move(inc.result.package);
      sq->objective = inc.result.objective;
      sq->valid = true;
      sq->error.clear();
      if (!inc.used_fallback) {
        ++sq->incremental_repairs;
        ++report->standing_incremental;
      }
      return true;
    };
    auto ran = incremental();
    if (ran.ok() && *ran) return;
    if (!ran.ok() && ran.status().IsInfeasible()) {
      sq->valid = false;
      sq->error = ran.status().message();
      return;
    }
    // Fall through to a full re-execution on `false` or non-infeasible
    // errors (e.g. a budget the incremental subproblem blew).
  }

  auto full = Execute(sq->text);
  if (full.ok()) {
    sq->package = std::move(full->package);
    sq->objective = full->objective;
    sq->valid = true;
    sq->error.clear();
  } else {
    sq->valid = false;
    sq->error = full.status().message();
  }
}

Result<uint64_t> Session::Watch(std::string_view paql) {
  return WatchInternal(paql, 0);
}

Result<uint64_t> Session::WatchInternal(std::string_view paql,
                                        uint64_t forced_id) {
  PAQL_ASSIGN_OR_RETURN(ResolvedQuery resolved, Resolve(paql, nullptr));
  if (resolved.joined_from) {
    return Status::Unsupported(
        "standing queries watch a single relation (multi-relation FROM is "
        "not repairable incrementally)");
  }
  StandingQuery sq;
  sq.text = std::string(paql);
  sq.table_name = resolved.table_name;
  if (auto v = std::dynamic_pointer_cast<const relation::TableVersion>(
          resolved.table)) {
    sq.version = v->version();
  }
  // Seed the answer now. Infeasibility and budget exhaustion still
  // register (the stream may make the query feasible later); hard errors
  // (parse, validation) reject the registration.
  auto result = Execute(paql);
  if (result.ok()) {
    sq.package = std::move(result->package);
    sq.objective = result->objective;
    sq.valid = true;
  } else if (result.status().IsInfeasible() ||
             result.status().IsResourceExhausted()) {
    sq.error = result.status().message();
  } else {
    return result.status();
  }
  std::lock_guard<std::mutex> lock(sync_->mu);
  if (forced_id != 0) {
    sq.id = forced_id;
    if (sync_->next_watch_id <= forced_id) {
      sync_->next_watch_id = forced_id + 1;
    }
  } else {
    sq.id = sync_->next_watch_id++;
  }
  uint64_t id = sq.id;
  std::string text = sq.text;
  sync_->standing.emplace(id, std::move(sq));
  // Log the registration before acking it; a failed append deregisters,
  // so the log and the registry never disagree about which watches exist.
  if (wal_ != nullptr && !wal_replaying_) {
    relation::WalRecord record;
    record.kind = relation::WalRecord::Kind::kWatch;
    record.watch_id = id;
    record.query = std::move(text);
    Status logged = wal_->Append(record);
    if (!logged.ok()) {
      sync_->standing.erase(id);
      return logged;
    }
  }
  return id;
}

bool Session::Unwatch(uint64_t id) {
  std::lock_guard<std::mutex> lock(sync_->mu);
  bool removed = sync_->standing.erase(id) > 0;
  if (removed && wal_ != nullptr && !wal_replaying_) {
    // Best effort: if the append fails, recovery re-registers the watch —
    // a spurious standing query after a crash, never lost data. Watch and
    // delta appends, whose loss would be real, fail their operations.
    (void)wal_->Append([&] {
      relation::WalRecord record;
      record.kind = relation::WalRecord::Kind::kUnwatch;
      record.watch_id = id;
      return record;
    }());
  }
  return removed;
}

Status Session::EnableDurability(const relation::WalOptions& options) {
  if (wal_ != nullptr) {
    return Status::InvalidArgument(
        "durability is already enabled on this session");
  }
  PAQL_ASSIGN_OR_RETURN(std::unique_ptr<relation::WalWriter> writer,
                        relation::WalWriter::Open(options));
  wal_ = std::move(writer);
  return Status::OK();
}

Result<relation::WalReplayStats> Session::RecoverFromWal(
    const relation::WalOptions& options) {
  if (wal_ != nullptr) {
    return Status::InvalidArgument(
        "RecoverFromWal replays the log and must not append to it: "
        "recover first, then EnableDurability");
  }
  wal_replaying_ = true;
  auto replayed = relation::ReplayWal(
      options, [&](const relation::WalRecord& record) -> Status {
        switch (record.kind) {
          case relation::WalRecord::Kind::kDelta: {
            // The chain must line up: each logged delta names the version
            // it applied on top of, so a log replayed against the wrong
            // base state (or out of order) is caught here instead of
            // silently rebuilding different data.
            PAQL_ASSIGN_OR_RETURN(
                std::shared_ptr<const relation::ColumnSource> table,
                GetTable(record.table));
            uint64_t current = 0;
            if (auto v =
                    std::dynamic_pointer_cast<const relation::TableVersion>(
                        table)) {
              current = v->version();
            }
            if (current != record.base_version) {
              return Status::Corruption(StrCat(
                  "wal replay: delta for table '", record.table,
                  "' applies on version ", record.base_version,
                  " but the table is at version ", current,
                  " (the log does not continue from this base state)"));
            }
            PAQL_ASSIGN_OR_RETURN(UpdateResult applied,
                                  ApplyUpdates(record.table, record.delta));
            (void)applied;
            return Status::OK();
          }
          case relation::WalRecord::Kind::kWatch: {
            PAQL_ASSIGN_OR_RETURN(
                uint64_t id, WatchInternal(record.query, record.watch_id));
            (void)id;
            return Status::OK();
          }
          case relation::WalRecord::Kind::kUnwatch:
            (void)Unwatch(record.watch_id);
            return Status::OK();
        }
        return Status::Internal("unhandled wal record kind");
      });
  wal_replaying_ = false;
  return replayed;
}

Result<StandingQuery> Session::GetStandingQuery(uint64_t id) const {
  std::lock_guard<std::mutex> lock(sync_->mu);
  auto it = sync_->standing.find(id);
  if (it == sync_->standing.end()) {
    return Status::NotFound(StrCat("no standing query with id ", id));
  }
  return it->second;
}

std::vector<StandingQuery> Session::standing_queries() const {
  std::lock_guard<std::mutex> lock(sync_->mu);
  std::vector<StandingQuery> out;
  out.reserve(sync_->standing.size());
  for (const auto& [id, sq] : sync_->standing) out.push_back(sq);
  return out;
}

Status Session::DumpLp(std::string_view paql, std::ostream& os) {
  auto resolved = Resolve(paql, nullptr);
  if (!resolved.ok()) return resolved.status();
  auto compiled = CompileResolved(*resolved, nullptr);
  if (!compiled.ok()) return compiled.status();
  if (compiled->ratio_objective) {
    return Status::Unsupported(
        "ratio (AVG) objectives have no linear LP translation to dump");
  }
  auto model = compiled->ilp.BuildModel(
      *resolved->table,
      compiled->ilp.ComputeBaseRowsVectorized(*resolved->table));
  if (!model.ok()) return model.status();
  lp::WriteLpFormat(*model, os);
  return Status::OK();
}

}  // namespace paql
