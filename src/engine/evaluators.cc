#include "engine/evaluators.h"

#include <utility>

#include "core/direct.h"
#include "core/lp_rounding.h"
#include "core/ratio_objective.h"
#include "core/sketch_refine.h"
#include "paql/validator.h"

namespace paql::engine {

bool CompiledQuery::HasRatioObjective(const lang::PackageQuery& query) {
  return query.objective.has_value() && query.objective->expr != nullptr &&
         query.objective->expr->kind == lang::GlobalKind::kAgg &&
         query.objective->expr->agg != nullptr &&
         query.objective->expr->agg->func == relation::AggFunc::kAvg;
}

Result<CompiledQuery> CompiledQuery::Compile(
    const lang::PackageQuery& query, const relation::Schema& schema,
    const lang::ValidateOptions& validate) {
  const bool ratio = HasRatioObjective(query);
  // Ratio objectives have no linear ILP translation (the validator rejects
  // them); translate the constraints-only query instead and let the
  // Dinkelbach strategy patch its parametric objective in per iteration.
  lang::PackageQuery to_translate = query.Clone();
  if (ratio) to_translate.objective.reset();
  {
    Status validated = lang::ValidateQuery(to_translate, schema, validate);
    if (!validated.ok()) return validated;
  }
  PAQL_ASSIGN_OR_RETURN(
      translate::CompiledQuery ilp,
      translate::CompiledQuery::Compile(to_translate, schema));
  return CompiledQuery{query.Clone(), std::move(ilp), ratio};
}

namespace {

/// Copy the shared context into a strategy options struct (all of which
/// derive from ExecContext).
template <typename Options>
Options FromContext(const ExecContext& ctx) {
  Options options;
  static_cast<ExecContext&>(options) = ctx;
  return options;
}

}  // namespace

// --- DIRECT ----------------------------------------------------------------

DirectStrategy::DirectStrategy(std::shared_ptr<const relation::ColumnSource> table)
    : table_(std::move(table)) {}

Result<core::EvalResult> DirectStrategy::Evaluate(
    const CompiledQuery& query, const ExecContext& ctx) const {
  core::DirectEvaluator evaluator(*table_, ctx);
  return evaluator.Evaluate(query.ilp);
}

// --- SKETCHREFINE ----------------------------------------------------------

SketchRefineStrategy::SketchRefineStrategy(
    std::shared_ptr<const relation::ColumnSource> table,
    std::shared_ptr<const partition::Partitioning> partitioning)
    : table_(std::move(table)), partitioning_(std::move(partitioning)) {}

Result<core::EvalResult> SketchRefineStrategy::Evaluate(
    const CompiledQuery& query, const ExecContext& ctx) const {
  core::SketchRefineEvaluator evaluator(
      *table_, *partitioning_, FromContext<core::SketchRefineOptions>(ctx));
  return evaluator.Evaluate(query.ilp);
}

// --- LP rounding -----------------------------------------------------------

LpRoundingStrategy::LpRoundingStrategy(
    std::shared_ptr<const relation::ColumnSource> table)
    : table_(std::move(table)) {}

Result<core::EvalResult> LpRoundingStrategy::Evaluate(
    const CompiledQuery& query, const ExecContext& ctx) const {
  core::LpRoundingEvaluator evaluator(
      *table_, FromContext<core::LpRoundingOptions>(ctx));
  return evaluator.Evaluate(query.ilp);
}

// --- Ratio objective -------------------------------------------------------

RatioObjectiveStrategy::RatioObjectiveStrategy(
    std::shared_ptr<const relation::ColumnSource> table)
    : table_(std::move(table)) {}

Result<core::EvalResult> RatioObjectiveStrategy::Evaluate(
    const CompiledQuery& query, const ExecContext& ctx) const {
  // The Dinkelbach evaluator re-derives its parametric objective from the
  // AST; the constraints-only `ilp` artifact is not what it solves.
  core::RatioObjectiveEvaluator evaluator(
      *table_, FromContext<core::RatioObjectiveOptions>(ctx));
  return evaluator.Evaluate(query.ast);
}

}  // namespace paql::engine
