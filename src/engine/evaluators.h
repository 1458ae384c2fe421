// Thin adapters wrapping each core evaluation strategy behind the
// PackageEvaluator interface.
//
// Each adapter holds the inputs the underlying algorithm needs (table and,
// for SKETCHREFINE, the offline partitioning) and, at Evaluate time, hands
// the shared ExecContext to the strategy (copied into its options struct
// where the strategy has extra knobs). The core classes stay available for
// callers that want the full per-strategy surface; the engine only needs
// this uniform slice.
#ifndef PAQL_ENGINE_EVALUATORS_H_
#define PAQL_ENGINE_EVALUATORS_H_

#include <memory>

#include "engine/evaluator.h"
#include "partition/partitioner.h"
#include "relation/column_source.h"
#include "relation/table.h"

namespace paql::engine {

/// DIRECT (paper §3.2): one exact ILP over the full base relation.
class DirectStrategy : public PackageEvaluator {
 public:
  explicit DirectStrategy(std::shared_ptr<const relation::ColumnSource> table);
  std::string_view name() const override { return "DIRECT"; }
  Result<core::EvalResult> Evaluate(const CompiledQuery& query,
                                    const ExecContext& ctx) const override;

 private:
  std::shared_ptr<const relation::ColumnSource> table_;
};

/// SKETCHREFINE (paper §4): sketch over representatives, greedy refine.
class SketchRefineStrategy : public PackageEvaluator {
 public:
  SketchRefineStrategy(
      std::shared_ptr<const relation::ColumnSource> table,
      std::shared_ptr<const partition::Partitioning> partitioning);
  std::string_view name() const override { return "SKETCHREFINE"; }
  Result<core::EvalResult> Evaluate(const CompiledQuery& query,
                                    const ExecContext& ctx) const override;

 private:
  std::shared_ptr<const relation::ColumnSource> table_;
  std::shared_ptr<const partition::Partitioning> partitioning_;
};

/// LP relaxation + rounding + repair (related-work baseline, paper §6).
class LpRoundingStrategy : public PackageEvaluator {
 public:
  explicit LpRoundingStrategy(std::shared_ptr<const relation::ColumnSource> table);
  std::string_view name() const override { return "LP_ROUNDING"; }
  Result<core::EvalResult> Evaluate(const CompiledQuery& query,
                                    const ExecContext& ctx) const override;

 private:
  std::shared_ptr<const relation::ColumnSource> table_;
};

/// Dinkelbach parametric evaluation for MINIMIZE/MAXIMIZE AVG objectives.
class RatioObjectiveStrategy : public PackageEvaluator {
 public:
  explicit RatioObjectiveStrategy(
      std::shared_ptr<const relation::ColumnSource> table);
  std::string_view name() const override { return "RATIO_OBJECTIVE"; }
  Result<core::EvalResult> Evaluate(const CompiledQuery& query,
                                    const ExecContext& ctx) const override;

 private:
  std::shared_ptr<const relation::ColumnSource> table_;
};

}  // namespace paql::engine

#endif  // PAQL_ENGINE_EVALUATORS_H_
