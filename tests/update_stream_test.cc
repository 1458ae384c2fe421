// The streaming-update path end to end, plus the 200-case differential
// sweep the update-stream PR promises: random insert/delete batches where
// incremental re-evaluation must agree with a full re-run on feasibility
// and stay bracketed by the previous package and the DIRECT optimum.
//
// These suites carry the "update" ctest label; the ThreadSanitizer CI job
// runs them (with the "parallel" suites) to race ApplyUpdates against
// concurrent query execution.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "common/str_util.h"
#include "core/direct.h"
#include "core/explain.h"
#include "core/incremental.h"
#include "core/sketch_refine.h"
#include "engine/engine.h"
#include "paql/parser.h"
#include "partition/dynamic_update.h"
#include "partition/partitioner.h"
#include "relation/table_version.h"
#include "service/catalog.h"
#include "service/scheduler.h"
#include "service/standing_query.h"

namespace paql {
namespace {

using core::DirectEvaluator;
using core::ReEvaluatePackage;
using core::SketchRefineEvaluator;
using core::ValidatePackage;
using partition::Partitioning;
using relation::DataType;
using relation::RowId;
using relation::Schema;
using relation::Table;
using relation::TableDelta;
using relation::TableVersion;
using relation::Value;
using translate::CompiledQuery;

Table MakeItems(int n, uint64_t seed) {
  Table t{Schema({{"id", DataType::kInt64},
                  {"cost", DataType::kDouble},
                  {"gain", DataType::kDouble}})};
  Rng rng(seed);
  for (int i = 0; i < n; ++i) {
    double cost = rng.Uniform(1.0, 10.0);
    double gain = cost * rng.Uniform(0.5, 2.0);
    EXPECT_TRUE(t.AppendRow({Value(i), Value(cost), Value(gain)}).ok());
  }
  return t;
}

Partitioning MustPartition(const relation::ColumnSource& t, size_t tau) {
  partition::PartitionOptions opts;
  opts.attributes = {"cost", "gain"};
  opts.size_threshold = tau;
  auto p = partition::PartitionTable(t, opts);
  EXPECT_TRUE(p.ok()) << p.status();
  return std::move(*p);
}

CompiledQuery MustCompile(const std::string& text, const Schema& schema) {
  auto q = lang::ParsePackageQuery(text);
  EXPECT_TRUE(q.ok()) << q.status();
  auto cq = CompiledQuery::Compile(*q, schema);
  EXPECT_TRUE(cq.ok()) << cq.status();
  return std::move(*cq);
}

/// One human-readable line describing a batch, printed on any sweep
/// mismatch so a failing case can be replayed by hand.
std::string DescribeBatch(const TableDelta& delta) {
  std::string out = "deletes=[";
  for (size_t i = 0; i < delta.deletes.size(); ++i) {
    if (i > 0) out += ",";
    out += StrCat(delta.deletes[i]);
  }
  out += StrCat("] inserts=", delta.inserts.size(), ":[");
  for (size_t i = 0; i < delta.inserts.size(); ++i) {
    if (i > 0) out += ";";
    out += StrCat(delta.inserts[i][1].AsDouble(), ",",
                  delta.inserts[i][2].AsDouble());
  }
  return out + "]";
}

// ---------------------------------------------------------------------------
// The 200-case differential sweep: incremental vs full re-evaluation
// ---------------------------------------------------------------------------

TEST(UpdateStreamSweepTest, IncrementalMatchesFullAcross200RandomBatches) {
  size_t evaluated = 0;
  for (unsigned seed = 1; seed <= 200; ++seed) {
    Rng rng(seed * 2654435761u);
    const int n = 80 + static_cast<int>(rng.UniformInt(0, 40));
    auto base = std::make_shared<Table>(MakeItems(n, seed * 13 + 1));
    auto wrapped = TableVersion::Wrap(base);
    ASSERT_TRUE(wrapped.ok()) << wrapped.status();
    std::shared_ptr<const TableVersion> v0 = *wrapped;
    Partitioning p =
        MustPartition(*v0, 16 + static_cast<size_t>(rng.UniformInt(0, 14)));

    const int count = static_cast<int>(rng.UniformInt(3, 5));
    const double budget = rng.Uniform(18.0, 40.0);
    CompiledQuery cq = MustCompile(
        StrCat("SELECT PACKAGE(R) AS P FROM Items R REPEAT 0 SUCH THAT "
               "COUNT(P.*) = ",
               count, " AND SUM(P.cost) <= ", budget,
               " MAXIMIZE SUM(P.gain)"),
        v0->schema());
    SketchRefineEvaluator sr0(*v0, p);
    auto before = sr0.Evaluate(cq);
    if (!before.ok()) continue;  // infeasible instance: nothing to maintain

    // A random batch: up to 8 distinct deletes, up to 12 inserts (some
    // cheap/high-gain so the optimum actually moves).
    TableDelta delta;
    std::set<RowId> chosen;
    const int want_deletes = static_cast<int>(rng.UniformInt(0, 8));
    for (int i = 0; i < want_deletes; ++i) {
      RowId r = static_cast<RowId>(rng.UniformInt(0, n - 1));
      if (chosen.insert(r).second) delta.Delete(r);
    }
    const int want_inserts = static_cast<int>(rng.UniformInt(0, 12));
    for (int i = 0; i < want_inserts; ++i) {
      double cost = rng.Uniform(1.0, 10.0);
      double gain = cost * rng.Uniform(0.5, 3.0);
      delta.Insert({Value(int64_t{n + i}), Value(cost), Value(gain)});
    }
    SCOPED_TRACE(StrCat("seed ", seed, " n=", n, " count=", count,
                        " budget=", budget, " ", DescribeBatch(delta)));

    auto applied = v0->Apply(delta);
    ASSERT_TRUE(applied.ok()) << applied.status();
    std::shared_ptr<const TableVersion> v1 = *applied;
    auto absorbed = partition::AbsorbBatch(*v1, p, delta.deletes);
    ASSERT_TRUE(absorbed.ok()) << absorbed.status();

    {  // The absorbed artifact must be internally consistent: gid and
       // groups agree, live rows are covered exactly once, deleted rows
       // carry the kNoGroup sentinel.
      const Partitioning& ap = absorbed->partitioning;
      ASSERT_EQ(ap.gid.size(), v1->num_rows());
      std::vector<int> hits(v1->num_rows(), 0);
      for (size_t g = 0; g < ap.groups.size(); ++g) {
        for (RowId r : ap.groups[g]) {
          ASSERT_LT(r, v1->num_rows());
          ASSERT_EQ(ap.gid[r], g) << "row " << r;
          ++hits[r];
        }
      }
      for (RowId r = 0; r < v1->num_rows(); ++r) {
        if (v1->RowDeleted(r)) {
          ASSERT_EQ(ap.gid[r], partition::kNoGroup) << "deleted row " << r;
          ASSERT_EQ(hits[r], 0) << "deleted row " << r;
        } else {
          ASSERT_NE(ap.gid[r], partition::kNoGroup) << "live row " << r;
          ASSERT_EQ(hits[r], 1) << "live row " << r;
        }
      }
      ASSERT_EQ(ap.representatives.num_rows(), ap.groups.size());
    }

    auto incremental =
        ReEvaluatePackage(*v1, absorbed->partitioning, cq, before->package,
                          absorbed->dirty_groups);
    SketchRefineEvaluator sr1(*v1, absorbed->partitioning);
    auto full = sr1.Evaluate(cq);

    // (1) Identical feasibility. The incremental path's fallback *is* a
    // full re-run, so a disagreement means the dirty-group bookkeeping
    // dropped or duplicated candidates.
    ASSERT_EQ(incremental.ok(), full.ok())
        << "incremental: "
        << (incremental.ok() ? "feasible" : incremental.status().ToString())
        << " vs full: "
        << (full.ok() ? "feasible" : full.status().ToString());
    if (!incremental.ok()) {
      ASSERT_TRUE(incremental.status().IsInfeasible())
          << incremental.status();
      ASSERT_TRUE(full.status().IsInfeasible()) << full.status();
      continue;
    }
    ++evaluated;
    Status inc_valid = ValidatePackage(cq, *v1, incremental->result.package);
    ASSERT_TRUE(inc_valid.ok()) << inc_valid;
    Status full_valid = ValidatePackage(cq, *v1, full->package);
    ASSERT_TRUE(full_valid.ok()) << full_valid;

    // (2) When the batch left the whole previous package alive and the
    // incremental subproblem went through, the previous choice is still a
    // feasible point of that subproblem: the objective cannot regress.
    if (!incremental->used_fallback &&
        incremental->previous_rows_deleted == 0) {
      EXPECT_GE(incremental->result.objective, before->objective - 1e-6);
    }

    // (3) Bracketed above by the true optimum on the new version.
    DirectEvaluator direct(*v1);
    auto exact = direct.Evaluate(cq);
    ASSERT_TRUE(exact.ok()) << exact.status();
    EXPECT_LE(incremental->result.objective, exact->objective + 1e-6);
    EXPECT_LE(full->objective, exact->objective + 1e-6);
  }
  // The sweep is only meaningful if most instances were actually feasible.
  EXPECT_GE(evaluated, 120u) << "too many infeasible instances";
}

// ---------------------------------------------------------------------------
// Session::ApplyUpdates + standing queries (engine layer)
// ---------------------------------------------------------------------------

constexpr const char* kItemsQuery =
    "SELECT PACKAGE(R) AS P FROM items R REPEAT 0 SUCH THAT "
    "COUNT(P.*) = 3 AND SUM(P.cost) <= 30 MAXIMIZE SUM(P.gain)";

Result<Session> OpenItemsSession(int rows, uint64_t seed) {
  return Engine::Open(MakeItems(rows, seed), "items");
}

TEST(SessionUpdateTest, QueriesAfterApplySeeTheNewVersion) {
  auto session = OpenItemsSession(60, 101);
  ASSERT_TRUE(session.ok()) << session.status();
  auto before = session->Execute(kItemsQuery);
  ASSERT_TRUE(before.ok()) << before.status();

  // Insert three dominant rows: cheap, huge gain.
  TableDelta delta;
  for (int i = 0; i < 3; ++i) {
    delta.Insert({Value(int64_t{1000 + i}), Value(1.0), Value(100.0 + i)});
  }
  auto update = session->ApplyUpdates("items", delta);
  ASSERT_TRUE(update.ok()) << update.status();
  EXPECT_EQ(update->version, 1u);
  EXPECT_EQ(update->rows_inserted, 3u);

  auto after = session->Execute(kItemsQuery);
  ASSERT_TRUE(after.ok()) << after.status();
  EXPECT_GT(after->objective, before->objective);
  EXPECT_EQ(after->package.rows, (std::vector<RowId>{60, 61, 62}));
}

TEST(SessionUpdateTest, DeletedRowsNeverAppearInAnswers) {
  auto session = OpenItemsSession(50, 102);
  ASSERT_TRUE(session.ok()) << session.status();
  auto before = session->Execute(kItemsQuery);
  ASSERT_TRUE(before.ok()) << before.status();
  ASSERT_FALSE(before->package.rows.empty());

  // Delete exactly the winning package's rows.
  TableDelta delta;
  for (RowId r : before->package.rows) delta.Delete(r);
  auto update = session->ApplyUpdates("items", delta);
  ASSERT_TRUE(update.ok()) << update.status();

  auto after = session->Execute(kItemsQuery);
  ASSERT_TRUE(after.ok()) << after.status();
  std::set<RowId> gone(before->package.rows.begin(),
                       before->package.rows.end());
  for (RowId r : after->package.rows) {
    EXPECT_FALSE(gone.count(r)) << "deleted row " << r << " in answer";
  }
  EXPECT_LE(after->objective, before->objective + 1e-9);
}

TEST(SessionUpdateTest, BadBatchLeavesEverythingUntouched) {
  auto session = OpenItemsSession(40, 103);
  ASSERT_TRUE(session.ok()) << session.status();
  auto before = session->Execute(kItemsQuery);
  ASSERT_TRUE(before.ok()) << before.status();

  TableDelta bad;
  bad.Delete(40);  // out of range
  auto update = session->ApplyUpdates("items", bad);
  ASSERT_FALSE(update.ok());

  auto after = session->Execute(kItemsQuery);
  ASSERT_TRUE(after.ok()) << after.status();
  EXPECT_EQ(after->package.rows, before->package.rows);
  EXPECT_NEAR(after->objective, before->objective, 1e-12);
}

TEST(SessionUpdateTest, StandingQueryRepairsAcrossBatches) {
  auto session = OpenItemsSession(60, 104);
  ASSERT_TRUE(session.ok()) << session.status();
  auto id = session->Watch(kItemsQuery);
  ASSERT_TRUE(id.ok()) << id.status();
  auto initial = session->GetStandingQuery(*id);
  ASSERT_TRUE(initial.ok()) << initial.status();
  EXPECT_TRUE(initial->valid);
  double objective0 = initial->objective;

  TableDelta better;
  better.Insert({Value(int64_t{900}), Value(1.0), Value(500.0)});
  auto update = session->ApplyUpdates("items", better);
  ASSERT_TRUE(update.ok()) << update.status();
  EXPECT_EQ(update->standing_repaired, 1u);

  auto repaired = session->GetStandingQuery(*id);
  ASSERT_TRUE(repaired.ok()) << repaired.status();
  EXPECT_TRUE(repaired->valid);
  EXPECT_EQ(repaired->repairs, 1u);
  EXPECT_GT(repaired->objective, objective0);
  // The dominant insert must be in the refreshed package.
  EXPECT_TRUE(std::count(repaired->package.rows.begin(),
                         repaired->package.rows.end(), RowId{60}) > 0);

  EXPECT_TRUE(session->Unwatch(*id));
  EXPECT_FALSE(session->Unwatch(*id));
}

TEST(SessionUpdateTest, RepairStaysIncrementalWhenTauDriftsWithRowCount) {
  // 1000 rows puts the default tau (rows/10) above its 64-row floor, so a
  // batch that changes the row count changes the tau that rule resolves
  // to. Repair must still find the absorbed partitioning, which keeps the
  // tau it was built under.
  EngineOptions options;
  options.planner.direct_row_threshold = 100;  // force SKETCHREFINE
  auto session = Engine::Open(MakeItems(1000, 107), "items", options);
  ASSERT_TRUE(session.ok()) << session.status();
  auto id = session->Watch(kItemsQuery);
  ASSERT_TRUE(id.ok()) << id.status();
  auto initial = session->GetStandingQuery(*id);
  ASSERT_TRUE(initial.ok()) << initial.status();
  ASSERT_TRUE(initial->valid);

  TableDelta delta;
  for (int i = 0; i < 10; ++i) {  // crosses a rows/10 boundary: tau 100→101
    delta.Insert({Value(int64_t{2000 + i}), Value(1.0), Value(400.0 + i)});
  }
  auto update = session->ApplyUpdates("items", delta);
  ASSERT_TRUE(update.ok()) << update.status();
  EXPECT_EQ(update->standing_repaired, 1u);
  EXPECT_EQ(update->standing_incremental, 1u);

  auto repaired = session->GetStandingQuery(*id);
  ASSERT_TRUE(repaired.ok()) << repaired.status();
  EXPECT_TRUE(repaired->valid);
  EXPECT_EQ(repaired->incremental_repairs, 1u);
  // Incremental repair promises no-worse, not globally optimal: the
  // inserts only displace previous picks whose groups went dirty.
  EXPECT_GE(repaired->objective, initial->objective - 1e-9);
}

TEST(SessionUpdateTest, OnePartitioningPerPolicyAcrossBatches) {
  // Under the default tau policy every insert batch moves the tau that
  // rows/10 resolves to. The registry still holds one partitioning for the
  // table's policy: each batch is absorbed into it, the next read reuses
  // it, and the plan reports the tau it was built under.
  EngineOptions options;
  options.planner.direct_row_threshold = 100;  // force SKETCHREFINE
  auto session = Engine::Open(MakeItems(1000, 110), "items", options);
  ASSERT_TRUE(session.ok()) << session.status();
  auto id = session->Watch(kItemsQuery);
  ASSERT_TRUE(id.ok()) << id.status();
  ASSERT_EQ(session->query_cache()->stats().partition_entries, 1u);

  Rng rng(111);
  std::set<RowId> deleted;
  size_t rows = 1000;
  const size_t kBatches = 12;
  for (size_t batch = 0; batch < kBatches; ++batch) {
    TableDelta delta;
    if (batch % 2 == 0) {
      for (int i = 0; i < 7; ++i) {
        double cost = rng.Uniform(1.0, 10.0);
        delta.Insert({Value(static_cast<int64_t>(rows + i)), Value(cost),
                      Value(cost * rng.Uniform(0.5, 2.0))});
      }
      rows += 7;
    } else {
      // Delete live rows outside the standing answer, so every repair has
      // a previous package to keep.
      auto sq = session->GetStandingQuery(*id);
      ASSERT_TRUE(sq.ok()) << sq.status();
      std::set<RowId> picked(sq->package.rows.begin(), sq->package.rows.end());
      while (delta.deletes.size() < 5) {
        RowId r = static_cast<RowId>(
            rng.UniformInt(0, static_cast<int64_t>(rows) - 1));
        if (picked.count(r) == 0 && deleted.insert(r).second) delta.Delete(r);
      }
    }
    auto update = session->ApplyUpdates("items", delta);
    ASSERT_TRUE(update.ok()) << "batch " << batch << ": " << update.status();
    EXPECT_EQ(update->partitionings_updated, 1u) << "batch " << batch;
    EXPECT_EQ(update->standing_repaired, 1u) << "batch " << batch;
    EXPECT_EQ(update->standing_incremental, 1u) << "batch " << batch;

    auto result = session->Execute(kItemsQuery);
    ASSERT_TRUE(result.ok()) << "batch " << batch << ": " << result.status();
    EXPECT_TRUE(result->plan.partitioning_reused) << "batch " << batch;
    // Built at 1000 rows; the rule now resolves to rows/10 > 100.
    EXPECT_EQ(result->plan.partition_size_threshold, 100u)
        << "batch " << batch;
    EXPECT_NE(result->plan.Explain().find("partitioning: tau 100,"),
              std::string::npos)
        << result->plan.Explain();
    EXPECT_EQ(session->query_cache()->stats().partition_entries, 1u)
        << "batch " << batch;
  }
  auto sq = session->GetStandingQuery(*id);
  ASSERT_TRUE(sq.ok()) << sq.status();
  EXPECT_TRUE(sq->valid);
  EXPECT_EQ(sq->incremental_repairs, kBatches);
}

// ---------------------------------------------------------------------------
// Snapshots older than a delete-only batch
// ---------------------------------------------------------------------------

TEST(SnapshotPartitioningTest, AbsorbedDeleteIsRejectedOnTheOlderSnapshot) {
  // A delete-only batch keeps the row count, so a partitioning absorbed
  // past it has the old snapshot's row space — but the deleted rows,
  // still live in that snapshot, are in no group. Every evaluator that
  // groups the base relation must refuse the pair instead of indexing
  // with kNoGroup.
  auto v1 = TableVersion::Wrap(std::make_shared<Table>(MakeItems(200, 109)));
  ASSERT_TRUE(v1.ok()) << v1.status();
  Partitioning p = MustPartition(**v1, 32);
  TableDelta delta;
  delta.Delete(5);
  delta.Delete(17);
  auto v2 = (*v1)->Apply(delta);
  ASSERT_TRUE(v2.ok()) << v2.status();
  ASSERT_EQ((*v2)->num_rows(), (*v1)->num_rows());
  auto absorbed = partition::AbsorbBatch(**v2, p, delta.deletes);
  ASSERT_TRUE(absorbed.ok()) << absorbed.status();
  const Partitioning& after = absorbed->partitioning;
  EXPECT_TRUE(p.CoversLiveRows(**v1));
  EXPECT_FALSE(after.CoversLiveRows(**v1));
  EXPECT_TRUE(after.CoversLiveRows(**v2));

  CompiledQuery cq = MustCompile(kItemsQuery, (*v1)->schema());
  auto stale = SketchRefineEvaluator(**v1, after).Evaluate(cq);
  ASSERT_FALSE(stale.ok());
  EXPECT_EQ(stale.status().code(), StatusCode::kInvalidArgument)
      << stale.status();
  EXPECT_FALSE(core::ExplainSketchRefine(cq, **v1, after).ok());

  // The snapshot the partitioning was absorbed for evaluates normally.
  auto current = SketchRefineEvaluator(**v2, after).Evaluate(cq);
  ASSERT_TRUE(current.ok()) << current.status();
  EXPECT_TRUE(ValidatePackage(cq, **v2, current->package).ok());
}

TEST(SnapshotPartitioningTest, ReaderOnOlderSnapshotRebuildsThePartitioning) {
  // The engine-level race: a session opened before a delete-only batch
  // keeps reading its snapshot while the registry absorbs the batch into
  // the shared partition registry under the same key. The reader must not
  // reuse that partitioning; it rebuilds one for its snapshot and answers
  // exactly as before the batch.
  service::Catalog catalog;
  ASSERT_TRUE(catalog.AddTable("items", MakeItems(200, 108)).ok());
  EngineOptions options;
  options.planner.force = engine::Strategy::kSketchRefine;
  auto reader = catalog.OpenSession(options);
  ASSERT_TRUE(reader.ok()) << reader.status();
  auto before = reader->Execute(kItemsQuery);
  ASSERT_TRUE(before.ok()) << before.status();
  ASSERT_FALSE(before->package.rows.empty());

  service::StandingQueryRegistry registry(&catalog);
  TableDelta delta;
  for (RowId r : before->package.rows) delta.Delete(r);
  auto update = registry.ApplyUpdates("items", delta);
  ASSERT_TRUE(update.ok()) << update.status();
  ASSERT_GT(update->partitionings_updated, 0u);

  auto again = reader->Execute(kItemsQuery);
  ASSERT_TRUE(again.ok()) << again.status();
  EXPECT_FALSE(again->plan.partitioning_reused);
  EXPECT_EQ(again->package.rows, before->package.rows);
  EXPECT_EQ(again->objective, before->objective);
  // The rebuild for the older snapshot stays private: the registry still
  // holds only partitionings that absorbed the batch.
  for (const auto& [key, cached] :
       catalog.query_cache()->PartitioningsFor("items")) {
    for (RowId r : before->package.rows) {
      EXPECT_EQ(cached->gid[r], partition::kNoGroup) << key << " row " << r;
    }
  }

  // A session on the new snapshot reuses the absorbed partitioning and
  // never answers with a deleted row.
  auto fresh = catalog.OpenSession(options);
  ASSERT_TRUE(fresh.ok()) << fresh.status();
  auto current = fresh->Execute(kItemsQuery);
  ASSERT_TRUE(current.ok()) << current.status();
  EXPECT_TRUE(current->plan.partitioning_reused);
  for (RowId r : current->package.rows) {
    EXPECT_EQ(std::count(before->package.rows.begin(),
                         before->package.rows.end(), r),
              0)
        << "deleted row " << r << " answered";
  }
}

// ---------------------------------------------------------------------------
// Service layer: registry + catalog publication + cache eviction
// ---------------------------------------------------------------------------

TEST(ServiceUpdateTest, RegistryPublishesVersionsToTheCatalog) {
  service::Catalog catalog;
  ASSERT_TRUE(catalog.AddTable("items", MakeItems(60, 105)).ok());
  service::StandingQueryRegistry registry(&catalog);

  auto watch = registry.Watch(kItemsQuery);
  ASSERT_TRUE(watch.ok()) << watch.status();

  TableDelta delta;
  delta.Insert({Value(int64_t{800}), Value(1.0), Value(400.0)});
  auto update = registry.ApplyUpdates("items", delta);
  ASSERT_TRUE(update.ok()) << update.status();
  EXPECT_EQ(update->standing_repaired, 1u);

  // Sessions opened after the publish read the new version...
  auto session = catalog.OpenSession();
  ASSERT_TRUE(session.ok()) << session.status();
  auto result = session->Execute(kItemsQuery);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_TRUE(std::count(result->package.rows.begin(),
                         result->package.rows.end(), RowId{60}) > 0);

  // ...and the registry's stats reflect the batch.
  service::StandingQueryStats stats = registry.stats();
  EXPECT_EQ(stats.batches, 1);
  EXPECT_EQ(stats.rows_inserted, 1);
  EXPECT_EQ(stats.watches, 1);
  EXPECT_EQ(stats.repairs, 1);
}

TEST(ServiceUpdateTest, ReplaceTableEvictsStaleArtifacts) {
  service::Catalog catalog;
  ASSERT_TRUE(catalog.AddTable("items", MakeItems(50, 106)).ok());
  auto session = catalog.OpenSession();
  ASSERT_TRUE(session.ok()) << session.status();
  auto before = session->Execute(kItemsQuery);
  ASSERT_TRUE(before.ok()) << before.status();
  ASSERT_GT(catalog.query_cache()->stats().entries, 0u);

  // Re-register under the same name with different data: every cached
  // artifact for the old table must go, and fresh sessions must answer
  // from the replacement (three dominant rows at the front).
  Table replacement{Schema({{"id", DataType::kInt64},
                            {"cost", DataType::kDouble},
                            {"gain", DataType::kDouble}})};
  for (int i = 0; i < 40; ++i) {
    double gain = i < 3 ? 1000.0 + i : 1.0;
    ASSERT_TRUE(
        replacement.AppendRow({Value(i), Value(2.0), Value(gain)}).ok());
  }
  ASSERT_TRUE(
      catalog
          .ReplaceTable("items", std::make_shared<Table>(std::move(replacement)))
          .ok());

  auto fresh = catalog.OpenSession();
  ASSERT_TRUE(fresh.ok()) << fresh.status();
  auto after = fresh->Execute(kItemsQuery);
  ASSERT_TRUE(after.ok()) << after.status();
  EXPECT_EQ(after->package.rows, (std::vector<RowId>{0, 1, 2}));
}

// ---------------------------------------------------------------------------
// Concurrency: ApplyUpdates racing Execute (the TSan target)
// ---------------------------------------------------------------------------

TEST(UpdateConcurrencyTest, ExecuteAlwaysReadsAConsistentSnapshot) {
  service::Catalog catalog;
  ASSERT_TRUE(catalog.AddTable("items", MakeItems(120, 107)).ok());
  service::SchedulerOptions sched_options;
  sched_options.max_concurrent = 4;
  service::QueryScheduler scheduler(catalog, sched_options);
  service::StandingQueryRegistry registry(&catalog,
                                          sched_options.engine);
  auto watch = registry.Watch(kItemsQuery);
  ASSERT_TRUE(watch.ok()) << watch.status();

  std::atomic<bool> stop{false};
  std::atomic<int> executed{0};
  std::atomic<int> failed{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&] {
      while (!stop.load()) {
        service::QueryRequest request;
        request.paql = kItemsQuery;
        auto result = scheduler.Execute(request);
        // Infeasibility is a legal answer mid-stream; anything else is a
        // torn read.
        if (result.ok() || result.status().IsInfeasible()) {
          ++executed;
        } else {
          ++failed;
        }
      }
    });
  }

  // 20 writer batches: inserts with occasional deletes of still-live rows.
  Rng rng(108);
  size_t total_rows = 120;
  std::set<RowId> deleted;
  for (int batch = 0; batch < 20; ++batch) {
    TableDelta delta;
    for (int i = 0; i < 4; ++i) {
      double cost = rng.Uniform(1.0, 10.0);
      delta.Insert({Value(static_cast<int64_t>(total_rows + i)), Value(cost),
                    Value(cost * rng.Uniform(0.5, 2.5))});
    }
    RowId victim = static_cast<RowId>(
        rng.UniformInt(0, static_cast<int64_t>(total_rows) - 1));
    if (deleted.insert(victim).second) delta.Delete(victim);
    auto update = registry.ApplyUpdates("items", delta);
    ASSERT_TRUE(update.ok()) << "batch " << batch << ": " << update.status();
    total_rows += delta.inserts.size();
  }
  // Writers can outpace the first query; keep the readers going until a
  // few executions have landed so the race is actually exercised.
  while (executed.load() < 3 && failed.load() == 0) {
    std::this_thread::yield();
  }
  stop.store(true);
  for (std::thread& t : readers) t.join();

  EXPECT_EQ(failed.load(), 0);
  EXPECT_GT(executed.load(), 0);
  // The standing query survived all 20 batches.
  auto sq = registry.Get(*watch);
  ASSERT_TRUE(sq.ok()) << sq.status();
  EXPECT_TRUE(sq->valid);
  EXPECT_EQ(sq->repairs, 20u);
}

TEST(UpdateConcurrencyTest, ConcurrentWatchersAndWriters) {
  service::Catalog catalog;
  ASSERT_TRUE(catalog.AddTable("items", MakeItems(80, 109)).ok());
  service::StandingQueryRegistry registry(&catalog);

  std::atomic<bool> stop{false};
  std::thread watcher([&] {
    while (!stop.load()) {
      auto id = registry.Watch(kItemsQuery);
      if (id.ok()) registry.Unwatch(*id);
    }
  });

  size_t total_rows = 80;
  for (int batch = 0; batch < 10; ++batch) {
    TableDelta delta;
    delta.Insert({Value(static_cast<int64_t>(total_rows)), Value(3.0),
                  Value(4.0)});
    auto update = registry.ApplyUpdates("items", delta);
    ASSERT_TRUE(update.ok()) << update.status();
    ++total_rows;
  }
  stop.store(true);
  watcher.join();
  EXPECT_EQ(registry.stats().batches, 10);
}

}  // namespace
}  // namespace paql
