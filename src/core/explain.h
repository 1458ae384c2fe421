// EXPLAIN for package queries: a human-readable rendering of what the
// evaluator will do, without solving anything.
//
// The paper's system is a query-evaluation layer, and like any such layer it
// needs an EXPLAIN facility: the PaQL -> ILP translation (Section 3.1) and
// the SKETCHREFINE plan (Section 4.2) are both non-obvious, and users tuning
// tau or choosing partitioning attributes need to see the shape of the
// problem the solver will receive.
//
// Two entry points:
//   * ExplainDirect       — the DIRECT plan: base-relation statistics and
//                           the translated ILP (variables, constraint rows,
//                           indicator variables for OR, objective).
//   * ExplainSketchRefine — the SKETCHREFINE plan: partitioning statistics
//                           (groups, sizes, radii), the sketch problem size,
//                           and the refine subproblem sizes.
//
// Both return plain text, one fact per line, stable enough to test against.
#ifndef PAQL_CORE_EXPLAIN_H_
#define PAQL_CORE_EXPLAIN_H_

#include <string>

#include "partition/partitioner.h"
#include "relation/column_source.h"
#include "relation/table.h"
#include "translate/compiled_query.h"

namespace paql::core {

/// Render the DIRECT evaluation plan of `query` over `table`.
std::string ExplainDirect(const translate::CompiledQuery& query,
                          const relation::ColumnSource& table);

/// Render the SKETCHREFINE evaluation plan of `query` over `table` with the
/// offline `partitioning`. Fails when the partitioning does not cover a
/// base row of `table` (Partitioning::GroupRows).
Result<std::string> ExplainSketchRefine(
    const translate::CompiledQuery& query, const relation::ColumnSource& table,
    const partition::Partitioning& partitioning);

}  // namespace paql::core

#endif  // PAQL_CORE_EXPLAIN_H_
