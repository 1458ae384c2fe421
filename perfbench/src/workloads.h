// The benchmark's workloads. Each one sets itself up several times (the
// median is setup_s), measures for RunConfig::seconds, checks every answer
// it gets, and fills an Outcome. With RunConfig::trace the measuring time
// is split: an untraced half gives the end-to-end figures, a traced half
// (spans around every engine call) gives the tracing overhead, and a
// layer-by-layer replay through each layer's public functions gives the
// per-layer metrics.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdio>
#include <cstdlib>
#include <string>

#include "report.h"

/// Abort the run on an environment or set-up failure. This is not an
/// answer check (those go through Checker); it means the benchmark could
/// not run at all.
#define PB_CHECK(cond, msg)                                              \
  do {                                                                   \
    if (!(cond)) {                                                       \
      std::fprintf(stderr, "perfbench: %s:%d: %s: %s\n", __FILE__,       \
                   __LINE__, #cond, std::string(msg).c_str());           \
      std::exit(3);                                                      \
    }                                                                    \
  } while (0)

namespace perfbench {

void RunPaperGalaxy(const RunConfig& config, Tracer* tracer, Outcome* out);
void RunOocoreScan(const RunConfig& config, Tracer* tracer, Outcome* out);
void RunServeMixed(const RunConfig& config, Tracer* tracer, Outcome* out);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
