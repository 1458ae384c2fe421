// ExecContext: the execution settings shared by every evaluation strategy.
//
// ExecContext is the single home for the fields every evaluator shares:
// solver budgets, branch-and-bound settings, seeds, cancellation flags and
// the worker count. The per-strategy options structs in core/ derive from
// it and add only their strategy-specific knobs; DIRECT, which has none,
// takes an ExecContext as is. Every strategy runs one pipeline: batch
// scans and coefficient fills, and the solver configured by
// `branch_and_bound` alone (warm starts, presolve, pricing).
//
// Header-only on purpose: core/ includes this file from its options structs
// while the engine *library* (planner, adapters, facade) links against
// core/ — keeping the dependency arrow between the two libraries acyclic.
#ifndef PAQL_ENGINE_EXEC_CONTEXT_H_
#define PAQL_ENGINE_EXEC_CONTEXT_H_

#include <atomic>
#include <cstdint>

#include "common/thread_pool.h"
#include "ilp/branch_and_bound.h"
#include "ilp/solver_limits.h"

namespace paql::engine {

/// Wall-clock seconds spent in each stage of Session::Execute's
/// parse -> validate -> compile -> plan -> evaluate pipeline (reported in
/// QueryResult::timings).
struct PhaseTimings {
  double parse_seconds = 0;
  double resolve_seconds = 0;    // FROM binding + join materialization
  double compile_seconds = 0;    // semantic validation + PaQL -> ILP
  double plan_seconds = 0;       // strategy choice + partitioning build/lookup
  double evaluate_seconds = 0;   // the chosen strategy, end to end
  double total_seconds = 0;

  void Reset() { *this = PhaseTimings(); }
};

/// Execution settings every strategy understands. A default-constructed
/// context means: unlimited solver budgets, default branch-and-bound, no
/// cancellation, seed 42.
struct ExecContext {
  /// Budgets applied to every ILP solve the strategy performs (DIRECT's
  /// single solve, each SKETCHREFINE subproblem, each Dinkelbach
  /// iteration, the LP-rounding repair ILP, each top-k enumeration step).
  ilp::SolverLimits limits;

  /// Branch-and-bound settings for those solves, including the simplex
  /// settings of every LP inside them. `warm_start` also governs the
  /// SKETCHREFINE refine-model cache and the cross-query root basis;
  /// `threads` is overridden by the context-level `threads` below.
  ilp::BranchAndBoundOptions branch_and_bound;

  /// Optional cooperative-cancellation flag, polled between (sub)problem
  /// solves. When another thread sets it, evaluation stops with
  /// kResourceExhausted. Not owned; may be null.
  const std::atomic<bool>* cancel = nullptr;

  /// Optional cross-solve warm-start carrier for the strategy's main ILP
  /// solve (DIRECT today). The session points this at a local seeded from
  /// the cross-query cache: the solve restores the previous identical
  /// statement's root basis and deposits its own on the way out. Not
  /// owned; may be null (every solve then starts from scratch as before).
  /// Only consulted when `branch_and_bound.warm_start` is on.
  ilp::IlpWarmStart* warm_basis = nullptr;

  /// Seed for any randomized choice a strategy makes (e.g. SKETCHREFINE's
  /// initial refinement order).
  uint64_t seed = 42;

  /// Worker threads for intra-query parallelism: the morsel-driven chunk
  /// pipeline (parallel scans, coefficient fills, per-group partitioning
  /// statistics) and the concurrent branch-and-bound search all draw this
  /// many workers from the shared process-wide pool. 0 = hardware
  /// concurrency (the default), 1 = the serial behaviour of earlier
  /// releases, reproduced exactly (same scans, same search order, same
  /// bits). Results for threads=N are identical to threads=1 up to
  /// branch-and-bound tie-breaking among equally-optimal incumbents (the
  /// differential sweep enforces feasibility + objective equality).
  int threads = 0;

  /// The resolved worker count (>= 1): `threads`, with 0 mapped to the
  /// hardware concurrency.
  int EffectiveThreads() const { return ClampThreads(threads); }

  /// `branch_and_bound` with the resolved `threads` applied — what every
  /// strategy hands to ilp::SolveIlp.
  ilp::BranchAndBoundOptions EffectiveBranchAndBound() const {
    ilp::BranchAndBoundOptions bnb = branch_and_bound;
    bnb.threads = EffectiveThreads();
    return bnb;
  }

  /// True once `cancel` has been set by another thread.
  bool Cancelled() const {
    return cancel != nullptr && cancel->load(std::memory_order_relaxed);
  }
};

}  // namespace paql::engine

#endif  // PAQL_ENGINE_EXEC_CONTEXT_H_
