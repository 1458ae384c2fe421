#include "core/explain.h"

#include <gtest/gtest.h>

#include "common/rng.h"
#include "paql/parser.h"

namespace paql::core {
namespace {

using lang::ParsePackageQuery;
using relation::DataType;
using relation::Schema;
using relation::Table;
using relation::Value;
using translate::CompiledQuery;

Table MakeItems(int n, uint64_t seed) {
  Table t{Schema({{"id", DataType::kInt64},
                  {"cost", DataType::kDouble},
                  {"gain", DataType::kDouble}})};
  Rng rng(seed);
  for (int i = 0; i < n; ++i) {
    double cost = rng.Uniform(1.0, 10.0);
    EXPECT_TRUE(
        t.AppendRow({Value(i), Value(cost), Value(cost * 1.5)}).ok());
  }
  return t;
}

CompiledQuery MustCompile(const std::string& text, const Table& table) {
  auto q = ParsePackageQuery(text);
  EXPECT_TRUE(q.ok()) << q.status();
  auto cq = CompiledQuery::Compile(*q, table.schema());
  EXPECT_TRUE(cq.ok()) << cq.status();
  return std::move(*cq);
}

TEST(ExplainTest, DirectPlanDescribesIlpShape) {
  Table t = MakeItems(40, 1);
  CompiledQuery cq = MustCompile(R"(
      SELECT PACKAGE(R) AS P FROM Items R REPEAT 0
      WHERE R.cost <= 8
      SUCH THAT COUNT(P.*) = 3 AND SUM(P.cost) <= 20
      MAXIMIZE SUM(P.gain))",
                                 t);
  std::string plan = ExplainDirect(cq, t);
  EXPECT_NE(plan.find("DIRECT plan"), std::string::npos);
  EXPECT_NE(plan.find("base relation (WHERE)"), std::string::npos);
  EXPECT_NE(plan.find("REPEAT 0"), std::string::npos);
  EXPECT_NE(plan.find("integer variables"), std::string::npos);
  EXPECT_NE(plan.find("MAXIMIZE"), std::string::npos);
  EXPECT_NE(plan.find("gain"), std::string::npos);
  // Two global predicates => at least two rows listed.
  EXPECT_NE(plan.find("row ["), std::string::npos);
}

TEST(ExplainTest, DirectPlanUnboundedRepetition) {
  Table t = MakeItems(10, 2);
  CompiledQuery cq = MustCompile(
      "SELECT PACKAGE(R) AS P FROM Items R SUCH THAT COUNT(P.*) = 3", t);
  std::string plan = ExplainDirect(cq, t);
  EXPECT_NE(plan.find("unbounded"), std::string::npos);
  EXPECT_NE(plan.find("no WHERE clause"), std::string::npos);
  EXPECT_NE(plan.find("vacuous"), std::string::npos);
}

TEST(ExplainTest, OrQueriesReportIndicators) {
  Table t = MakeItems(20, 3);
  CompiledQuery cq = MustCompile(R"(
      SELECT PACKAGE(R) AS P FROM Items R REPEAT 0
      SUCH THAT SUM(P.cost) <= 5 OR SUM(P.cost) >= 40)",
                                 t);
  std::string plan = ExplainDirect(cq, t);
  EXPECT_NE(plan.find("OR indicators"), std::string::npos);
}

TEST(ExplainTest, SketchRefinePlanDescribesPartitioning) {
  Table t = MakeItems(200, 4);
  partition::PartitionOptions popts;
  popts.attributes = {"cost", "gain"};
  popts.size_threshold = 32;
  auto part = partition::PartitionTable(t, popts);
  ASSERT_TRUE(part.ok());
  CompiledQuery cq = MustCompile(R"(
      SELECT PACKAGE(R) AS P FROM Items R REPEAT 0
      SUCH THAT COUNT(P.*) = 4 AND SUM(P.cost) <= 25
      MINIMIZE SUM(P.cost))",
                                 t);
  auto explained = ExplainSketchRefine(cq, t, *part);
  ASSERT_TRUE(explained.ok()) << explained.status();
  const std::string& plan = *explained;
  EXPECT_NE(plan.find("SKETCHREFINE plan"), std::string::npos);
  EXPECT_NE(plan.find("tau = 32"), std::string::npos);
  EXPECT_NE(plan.find("cost, gain"), std::string::npos);
  EXPECT_NE(plan.find("group sizes"), std::string::npos);
  EXPECT_NE(plan.find("SKETCH: one ILP"), std::string::npos);
  EXPECT_NE(plan.find("REFINE: up to"), std::string::npos);
  EXPECT_NE(plan.find("no radius limit"), std::string::npos);
}

TEST(ExplainTest, RadiusLimitedPartitioningMentionsGuarantee) {
  Table t = MakeItems(200, 5);
  partition::PartitionOptions popts;
  popts.attributes = {"cost"};
  popts.size_threshold = 64;
  popts.radius_limit = 2.0;
  auto part = partition::PartitionTable(t, popts);
  ASSERT_TRUE(part.ok());
  CompiledQuery cq = MustCompile(
      "SELECT PACKAGE(R) AS P FROM Items R REPEAT 0 "
      "SUCH THAT COUNT(P.*) = 3 MINIMIZE SUM(P.cost)",
      t);
  auto explained = ExplainSketchRefine(cq, t, *part);
  ASSERT_TRUE(explained.ok()) << explained.status();
  const std::string& plan = *explained;
  EXPECT_NE(plan.find("Theorem 3"), std::string::npos);
}

TEST(ExplainTest, BasePredicateNarrowsGroups) {
  Table t = MakeItems(100, 6);
  partition::PartitionOptions popts;
  popts.attributes = {"cost"};
  popts.size_threshold = 25;
  auto part = partition::PartitionTable(t, popts);
  ASSERT_TRUE(part.ok());
  CompiledQuery cq = MustCompile(R"(
      SELECT PACKAGE(R) AS P FROM Items R REPEAT 0
      WHERE R.cost <= 3
      SUCH THAT COUNT(P.*) = 2)",
                                 t);
  auto explained = ExplainSketchRefine(cq, t, *part);
  ASSERT_TRUE(explained.ok()) << explained.status();
  const std::string& plan = *explained;
  // The WHERE clause empties some groups; the plan reports candidates.
  EXPECT_NE(plan.find("with candidates"), std::string::npos);
  EXPECT_NE(plan.find("candidate rows"), std::string::npos);
}

}  // namespace
}  // namespace paql::core
