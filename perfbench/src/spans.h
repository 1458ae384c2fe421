// Spans synthesized from what one Session::Execute call reports about
// itself: its per-phase timings and the strategy's translate/solve split.
#ifndef PERFBENCH_SPANS_H_
#define PERFBENCH_SPANS_H_

#include "engine/engine.h"
#include "report.h"

namespace perfbench {

/// Record parse, resolve, compile, plan and evaluate (with the strategy's
/// translate and solve time inside evaluate) laid end to end from the
/// call's start, under the innermost open span.
inline void RecordPhases(Tracer* tracer, int64_t start_ns,
                         const paql::QueryResult& r, int64_t request) {
  const auto& t = r.timings;
  int64_t at = start_ns;
  auto add = [&](const char* name, double seconds, int parent) {
    const int64_t len = static_cast<int64_t>(seconds * 1e9);
    const int index = tracer->Record(name, at, at + len, request, parent);
    at += len;
    return index;
  };
  add("paql.parse", t.parse_seconds, Tracer::kInnermost);
  add("engine.resolve", t.resolve_seconds, Tracer::kInnermost);
  add("translate.compile", t.compile_seconds, Tracer::kInnermost);
  add("engine.plan", t.plan_seconds, Tracer::kInnermost);
  const int64_t eval_start = at;
  const bool direct = r.plan.strategy == paql::engine::Strategy::kDirect;
  const int eval = add(direct ? "core.direct" : "core.sketch_refine",
                       t.evaluate_seconds, Tracer::kInnermost);
  at = eval_start;
  add("translate.base_and_model", r.stats.translate_seconds, eval);
  add("ilp.solve", r.stats.solve_seconds, eval);
}

}  // namespace perfbench

#endif  // PERFBENCH_SPANS_H_
