// Shared plumbing of the benchmark binary: run configuration, latency
// statistics, the span tracer of the traced run, answer checks, and the
// metric report whose last line is the machine-readable result.
#ifndef PERFBENCH_REPORT_H_
#define PERFBENCH_REPORT_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace perfbench {

/// What one invocation measures (parsed from the command line).
struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Smoke-test scale: every workload shrinks to a second or two.
  bool tiny = false;
  /// Deliberately corrupt one expected answer; the run must then fail.
  bool corrupt_expected = false;
  /// Scratch directory for block stores, WAL segments and the span dump.
  std::string workdir;
};

/// Monotonic nanoseconds since an arbitrary epoch.
inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// A derived 64-bit seed: the same (seed, stream) always gives the same
/// value, distinct streams give unrelated values (splitmix64).
uint64_t DeriveSeed(uint64_t seed, uint64_t stream);

double Median(std::vector<double> v);
double Mean(const std::vector<double>& v);
double GeoMean(const std::vector<double>& v);

/// The "tail" of a latency sample: the highest of p99.9 / p99 / p90 / p50
/// that still has at least 10 samples beyond it.
struct Tail {
  double value = 0;
  double percentile = 0;
  size_t samples = 0;
};
Tail TailOf(std::vector<double> v);
double Percentile(std::vector<double> v, double pct);

/// In-memory span recorder for the traced run. Spans carry a name of the
/// form "<layer>.<call>", start/end on the monotonic clock, the index of
/// the enclosing span on the same thread (-1 at top level), and the
/// benchmark request id they serve. Disabled tracers record nothing.
class Tracer {
 public:
  struct Span {
    std::string name;
    int64_t start_ns = 0;
    int64_t end_ns = 0;
    int parent = -1;
    int64_t request = -1;
  };

  explicit Tracer(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }
  void set_enabled(bool on) { enabled_ = on; }

  int Begin(std::string_view name, int64_t request);
  void End(int index);
  /// A span whose start and end were measured elsewhere (for example the
  /// per-phase timings an engine call returns). `parent` is a span index,
  /// or kInnermost for the innermost open span of this thread. Returns the
  /// new span's index (-1 when disabled).
  static constexpr int kInnermost = -2;
  int Record(std::string_view name, int64_t start_ns, int64_t end_ns,
             int64_t request, int parent = kInnermost);

  /// Milliseconds spent in each layer excluding time in child spans.
  std::map<std::string, double> SelfMsByLayer() const;
  size_t size() const;

  /// Write every span as one JSON object per line.
  bool WriteJsonLines(const std::string& path) const;

 private:
  bool enabled_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// RAII span; records nothing on a null or disabled tracer, but Close()
/// returns the duration either way.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, std::string_view name, int64_t request = -1);
  ~ScopedSpan() { Close(); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  /// End the span now; returns its duration in seconds.
  double Close();

 private:
  Tracer* tracer_;
  int index_ = -1;
  int64_t start_ns_;
  int64_t end_ns_ = 0;
};

/// Collects answer mismatches. Any mismatch fails the run.
class Checker {
 public:
  void Expect(bool ok, const std::string& what);
  bool ok() const;
  int64_t checks() const;
  std::vector<std::string> mismatches() const;

 private:
  mutable std::mutex mu_;
  int64_t checks_ = 0;
  std::vector<std::string> mismatches_;
};

/// True when `a` and `b` agree within the relative MIP gap the solver runs
/// with (both strategies may stop anywhere inside it).
bool WithinGap(double a, double b, double gap);

/// One metric value with its unit.
struct Metric {
  double value = 0;
  std::string unit;
};

/// A workload's outcome: its end-to-end and per-layer metrics, operation
/// counts, and the checks that gate the numbers.
struct Outcome {
  std::map<std::string, Metric> end_to_end;
  std::map<std::string, Metric> per_layer;
  /// Human-readable lines printed before the result (the workload's own
  /// metric names, sizes, and failure breakdown).
  std::vector<std::string> notes;
  int64_t attempted = 0;
  int64_t failed = 0;
  /// Operations that ran to completion but returned no package because
  /// the solver budget ran out or the strategy reported infeasible: the
  /// experiment's measured outcome (fig5's FAIL cells), not a failed
  /// operation. answered_share = 1 - (failed + unanswered) / attempted.
  int64_t unanswered = 0;
  Checker checker;

  void E2e(const std::string& name, double value, const std::string& unit) {
    end_to_end[name] = {value, unit};
  }
  void Layer(const std::string& name, double value, const std::string& unit) {
    per_layer[name] = {value, unit};
  }
  void Note(const std::string& line) { notes.push_back(line); }
  /// Count an engine call that returned `code` instead of a package.
  void NoPackage(paql::StatusCode code) {
    if (code == paql::StatusCode::kResourceExhausted ||
        code == paql::StatusCode::kInfeasible) {
      ++unanswered;
    } else {
      ++failed;
    }
  }
};

/// The end-to-end and per-layer metric names, with their units, as
/// BENCHMARK.json lists them. Every workload reports all of them; a layer
/// the workload does not exercise reports 0.
const std::vector<std::pair<std::string, std::string>>& EndToEndMetrics();
const std::vector<std::pair<std::string, std::string>>& PerLayerMetrics();

/// Fill the per-layer self-time metrics from the tracer's spans.
void AddSelfTimes(const Tracer& tracer, Outcome* out);

/// Peak resident set size of this process, in MiB.
double PeakRssMb();

/// CPU seconds this process has used so far, all threads together. The
/// gated metrics are CPU time: on a shared virtual machine the hypervisor
/// takes a varying share of the CPUs (steal), which moves wall-clock
/// figures by tens of percent from run to run but is not charged here.
double ProcessCpuSeconds();

/// Run `set_up` `reps` times: setup_s is the median CPU seconds of one
/// set-up, e2e.setup_wall_s its median wall-clock seconds.
template <typename SetUp>
void TimeSetUp(int reps, SetUp&& set_up, Outcome* out) {
  std::vector<double> cpu, wall;
  for (int rep = 0; rep < reps; ++rep) {
    const double cpu0 = ProcessCpuSeconds();
    const int64_t wall0 = NowNs();
    set_up(rep);
    cpu.push_back(ProcessCpuSeconds() - cpu0);
    wall.push_back(static_cast<double>(NowNs() - wall0) / 1e9);
  }
  out->E2e("setup_s", Median(cpu), "s");
  out->Layer("e2e.setup_wall_s", Median(wall), "s");
}

std::string FormatNumber(double v);

}  // namespace perfbench

#endif  // PERFBENCH_REPORT_H_
