// Cross-engine integration sweep: every evaluation strategy in the library
// answers the same randomized instances, and their answers must relate the
// way the theory says:
//
//   * every returned package validates against the compiled query;
//   * DIRECT is optimal, so no engine beats it (within tolerance);
//   * top-1 enumeration equals DIRECT;
//   * LP rounding is bounded by the LP relaxation;
//   * SKETCHREFINE (plain and robust) is feasible and within a loose factor
//     of DIRECT on these benign instances;
//   * infeasible instances are reported as infeasible by every engine.
#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/str_util.h"
#include "core/direct.h"
#include "core/lp_rounding.h"
#include "core/remedies.h"
#include "core/sketch_refine.h"
#include "core/topk.h"
#include "paql/parser.h"
#include "partition/partitioner.h"

namespace paql::core {
namespace {

using partition::Partitioning;
using relation::DataType;
using relation::Schema;
using relation::Table;
using relation::Value;

lang::PackageQuery Parse(const std::string& text) {
  auto q = lang::ParsePackageQuery(text);
  PAQL_CHECK_MSG(q.ok(), q.status().ToString());
  return std::move(*q);
}

struct Instance {
  Table table;
  translate::CompiledQuery query;
  Partitioning partitioning;
};

Instance MakeInstance(uint64_t seed) {
  Rng rng(seed);
  Table t{Schema({{"cost", DataType::kDouble},
                  {"gain", DataType::kDouble},
                  {"size", DataType::kDouble}})};
  int n = static_cast<int>(rng.UniformInt(60, 140));
  for (int i = 0; i < n; ++i) {
    PAQL_CHECK(t.AppendRow({Value(rng.Uniform(1, 10)),
                            Value(rng.Uniform(0, 8)),
                            Value(rng.Uniform(1, 4))})
                   .ok());
  }
  double budget = rng.Uniform(25, 60);
  int max_count = static_cast<int>(rng.UniformInt(5, 15));
  std::string text = StrCat(
      "SELECT PACKAGE(R) AS P FROM R REPEAT 0 SUCH THAT SUM(P.cost) <= ",
      budget, " AND COUNT(P.*) <= ", max_count, " MAXIMIZE SUM(P.gain)");
  auto query = translate::CompiledQuery::Compile(Parse(text), t.schema());
  PAQL_CHECK_MSG(query.ok(), query.status().ToString());
  partition::PartitionOptions popts;
  popts.attributes = {"cost", "gain"};
  popts.size_threshold = static_cast<size_t>(n) / 4 + 1;
  auto p = partition::PartitionTable(t, popts);
  PAQL_CHECK_MSG(p.ok(), p.status().ToString());
  Instance inst{std::move(t), std::move(*query), std::move(*p)};
  return inst;
}

class CrossEngineTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CrossEngineTest, AllEnginesAgreeOnTheRelationships) {
  Instance inst = MakeInstance(GetParam());
  const Table& t = inst.table;
  const auto& cq = inst.query;

  DirectEvaluator direct(t);
  auto exact = direct.Evaluate(cq);
  ASSERT_TRUE(exact.ok()) << exact.status();
  ASSERT_TRUE(ValidatePackage(cq, t, exact->package).ok());
  const double opt = exact->objective;

  // Top-1 == DIRECT.
  TopKOptions topts;
  topts.k = 1;
  auto top = EnumerateTopPackages(t, cq, topts);
  ASSERT_TRUE(top.ok()) << top.status();
  EXPECT_NEAR(top->front().objective, opt, 1e-6 * (1 + std::abs(opt)));

  // LP rounding: feasible, sandwiched by DIRECT and the LP bound.
  LpRoundingEvaluator lp_eval(t);
  LpRoundingInfo info;
  auto lp = lp_eval.EvaluateWithInfo(cq, &info);
  ASSERT_TRUE(lp.ok()) << lp.status();
  EXPECT_TRUE(ValidatePackage(cq, t, lp->package).ok());
  EXPECT_LE(lp->objective, opt + 1e-6);
  EXPECT_GE(info.lp_objective, opt - 1e-6);

  // SKETCHREFINE.
  SketchRefineEvaluator sr(t, inst.partitioning);
  auto sketch = sr.Evaluate(cq);
  ASSERT_TRUE(sketch.ok()) << sketch.status();
  EXPECT_TRUE(ValidatePackage(cq, t, sketch->package).ok());
  EXPECT_LE(sketch->objective, opt + 1e-6);
  EXPECT_GE(sketch->objective, 0.4 * opt);  // benign instances stay close

  // Robust wrapper: must behave identically when no remedy is needed.
  RobustSketchRefineEvaluator robust(t, inst.partitioning);
  auto robust_result = robust.Evaluate(cq);
  ASSERT_TRUE(robust_result.ok()) << robust_result.status();
  EXPECT_TRUE(ValidatePackage(cq, t, robust_result->result.package).ok());

}

TEST_P(CrossEngineTest, InfeasibleInstancesAreInfeasibleEverywhere) {
  Instance inst = MakeInstance(GetParam() + 500);
  const Table& t = inst.table;
  // COUNT >= n+1 with REPEAT 0 is unsatisfiable.
  std::string text = StrCat(
      "SELECT PACKAGE(R) AS P FROM R REPEAT 0 SUCH THAT COUNT(P.*) >= ",
      t.num_rows() + 1, " MAXIMIZE SUM(P.gain)");
  auto cq = translate::CompiledQuery::Compile(Parse(text), t.schema());
  ASSERT_TRUE(cq.ok());

  auto direct = DirectEvaluator(t).Evaluate(*cq);
  ASSERT_FALSE(direct.ok());
  EXPECT_TRUE(direct.status().IsInfeasible());

  auto sketch = SketchRefineEvaluator(t, inst.partitioning).Evaluate(*cq);
  ASSERT_FALSE(sketch.ok());
  EXPECT_TRUE(sketch.status().IsInfeasible());

  auto lp = LpRoundingEvaluator(t).Evaluate(*cq);
  ASSERT_FALSE(lp.ok());
  EXPECT_TRUE(lp.status().IsInfeasible());

  auto top = EnumerateTopPackages(t, *cq);
  ASSERT_FALSE(top.ok());
  EXPECT_TRUE(top.status().IsInfeasible());
}

INSTANTIATE_TEST_SUITE_P(Seeds, CrossEngineTest,
                         ::testing::Range<uint64_t>(100, 118));

}  // namespace
}  // namespace paql::core
