#include "engine/planner.h"

#include <gtest/gtest.h>

#include "relation/schema.h"
#include "relation/table.h"
#include "relation/value.h"

namespace paql::engine {
namespace {

using relation::DataType;
using relation::Schema;
using relation::Table;
using relation::Value;

Table MakeTable(size_t rows) {
  Table t{Schema({{"name", DataType::kString},
                  {"cost", DataType::kDouble},
                  {"gain", DataType::kDouble}})};
  for (size_t i = 0; i < rows; ++i) {
    EXPECT_TRUE(t.AppendRow({Value("row"), Value(1.0 + double(i % 7)),
                             Value(2.0 + double(i % 5))})
                    .ok());
  }
  return t;
}

TEST(PlannerTest, SmallTableRoutesToDirect) {
  PlannerOptions options;
  options.direct_row_threshold = 100;
  Planner planner(options);
  Table t = MakeTable(99);
  Plan plan = planner.Decide(t, QueryShape{});
  EXPECT_EQ(plan.strategy, Strategy::kDirect);
  EXPECT_EQ(plan.table_rows, 99u);
  EXPECT_EQ(plan.direct_row_threshold, 100u);
  EXPECT_FALSE(plan.uses_partitioning());
}

TEST(PlannerTest, LargeTableRoutesToSketchRefine) {
  PlannerOptions options;
  options.direct_row_threshold = 100;
  Planner planner(options);
  Table t = MakeTable(100);  // at the threshold: SKETCHREFINE
  Plan plan = planner.Decide(t, QueryShape{});
  EXPECT_EQ(plan.strategy, Strategy::kSketchRefine);
  EXPECT_TRUE(plan.uses_partitioning());
}

TEST(PlannerTest, LargeAllStringTableFallsBackToDirect) {
  // SKETCHREFINE is impossible without numeric partitioning attributes;
  // auto mode must not route into a dead end.
  PlannerOptions options;
  options.direct_row_threshold = 100;
  Planner planner(options);
  Table t{Schema({{"name", DataType::kString}, {"tag", DataType::kString}})};
  for (int i = 0; i < 500; ++i) {
    ASSERT_TRUE(t.AppendRow({Value("n"), Value("t")}).ok());
  }
  Plan plan = planner.Decide(t, QueryShape{});
  EXPECT_EQ(plan.strategy, Strategy::kDirect);
  EXPECT_NE(plan.reason.find("no numeric partitioning"), std::string::npos)
      << plan.reason;
}

TEST(PlannerTest, RatioObjectiveRoutesToDinkelbach) {
  Planner planner{PlannerOptions{}};
  Table t = MakeTable(10);
  QueryShape shape;
  shape.ratio_objective = true;
  Plan plan = planner.Decide(t, shape);
  EXPECT_EQ(plan.strategy, Strategy::kRatioObjective);
}

TEST(PlannerTest, RatioObjectiveOutranksOverride) {
  // No other strategy can evaluate an AVG objective, so forcing one would
  // only defer the failure; the shape check wins by design.
  PlannerOptions options;
  options.force = Strategy::kDirect;
  Planner planner(options);
  Table t = MakeTable(10);
  QueryShape shape;
  shape.ratio_objective = true;
  EXPECT_EQ(planner.Decide(t, shape).strategy, Strategy::kRatioObjective);
}

TEST(PlannerTest, ExplicitOverrideWinsOverSizeHeuristic) {
  PlannerOptions options;
  options.direct_row_threshold = 100;
  options.force = Strategy::kDirect;
  Planner planner(options);
  Table big = MakeTable(10'000);
  Plan plan = planner.Decide(big, QueryShape{});
  EXPECT_EQ(plan.strategy, Strategy::kDirect);
  EXPECT_NE(plan.reason.find("override"), std::string::npos) << plan.reason;

  options.force = Strategy::kSketchRefine;
  Table small = MakeTable(5);
  EXPECT_EQ(Planner(options).Decide(small, QueryShape{}).strategy,
            Strategy::kSketchRefine);

  options.force = Strategy::kLpRounding;
  EXPECT_EQ(Planner(options).Decide(big, QueryShape{}).strategy,
            Strategy::kLpRounding);
}

TEST(PlannerTest, TopKIsDirectBased) {
  PlannerOptions options;
  options.direct_row_threshold = 100;
  Planner planner(options);
  Table big = MakeTable(500);
  QueryShape shape;
  shape.topk = 3;
  Plan plan = planner.Decide(big, shape);
  EXPECT_EQ(plan.strategy, Strategy::kDirect);
  EXPECT_NE(plan.reason.find("top-3"), std::string::npos) << plan.reason;
}

TEST(PlannerTest, PartitionDefaultsResolveFromTable) {
  Planner planner{PlannerOptions{}};
  Table t = MakeTable(2000);
  // All numeric columns; the string column is excluded.
  EXPECT_EQ(planner.PartitionAttributes(t),
            (std::vector<std::string>{"cost", "gain"}));
  // tau = max(rows / 10, 64).
  EXPECT_EQ(planner.PartitionSizeThreshold(t), 200u);
  EXPECT_EQ(planner.PartitionSizeThreshold(MakeTable(30)), 64u);

  PlannerOptions configured;
  configured.partition_attributes = {"gain"};
  configured.partition_size_threshold = 17;
  Planner explicit_planner(configured);
  EXPECT_EQ(explicit_planner.PartitionAttributes(t),
            (std::vector<std::string>{"gain"}));
  EXPECT_EQ(explicit_planner.PartitionSizeThreshold(t), 17u);
}

TEST(PlannerTest, ExplainReportsChoiceAndThresholds) {
  PlannerOptions options;
  options.direct_row_threshold = 100;
  Planner planner(options);
  Plan plan = planner.Decide(MakeTable(500), QueryShape{});
  plan.partition_attributes = {"cost", "gain"};
  plan.partition_size_threshold = 50;
  plan.partition_groups = 12;
  std::string report = plan.Explain();
  EXPECT_NE(report.find("strategy: SKETCHREFINE"), std::string::npos);
  EXPECT_NE(report.find("direct row threshold: 100"), std::string::npos);
  EXPECT_NE(report.find("tau 50"), std::string::npos);
  EXPECT_NE(report.find("12 groups"), std::string::npos);
  EXPECT_NE(report.find("built"), std::string::npos);

  Plan direct = planner.Decide(MakeTable(10), QueryShape{});
  EXPECT_NE(direct.Explain().find("strategy: DIRECT"), std::string::npos);
}

TEST(PlannerTest, StrategyNames) {
  EXPECT_STREQ(StrategyName(Strategy::kDirect), "DIRECT");
  EXPECT_STREQ(StrategyName(Strategy::kSketchRefine), "SKETCHREFINE");
  EXPECT_STREQ(StrategyName(Strategy::kLpRounding), "LP_ROUNDING");
  EXPECT_STREQ(StrategyName(Strategy::kRatioObjective), "RATIO_OBJECTIVE");
}

}  // namespace
}  // namespace paql::engine
