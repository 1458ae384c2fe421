#include "report.h"

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>

namespace perfbench {

uint64_t DeriveSeed(uint64_t seed, uint64_t stream) {
  uint64_t z = seed * 0x9E3779B97F4A7C15ull + stream + 0x632BE59BD9B4E019ull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double sum = 0;
  for (double x : v) sum += x;
  return sum / static_cast<double>(v.size());
}

double GeoMean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double log_sum = 0;
  for (double x : v) log_sum += std::log(x);
  return std::exp(log_sum / static_cast<double>(v.size()));
}

double Percentile(std::vector<double> v, double pct) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  // Nearest-rank percentile.
  size_t rank = static_cast<size_t>(
      std::ceil(pct / 100.0 * static_cast<double>(v.size())));
  rank = std::clamp<size_t>(rank, 1, v.size());
  return v[rank - 1];
}

Tail TailOf(std::vector<double> v) {
  Tail tail;
  tail.samples = v.size();
  for (double pct : {99.9, 99.0, 90.0, 50.0}) {
    double beyond = static_cast<double>(v.size()) * (1.0 - pct / 100.0);
    if (beyond >= 10.0 || pct == 50.0) {
      tail.percentile = pct;
      tail.value = Percentile(std::move(v), pct);
      return tail;
    }
  }
  return tail;
}

// --- Tracer -----------------------------------------------------------------

namespace {
// Open spans of the current thread, innermost last.
thread_local std::vector<int> open_spans;
}  // namespace

int Tracer::Begin(std::string_view name, int64_t request) {
  if (!enabled_) return -1;
  std::lock_guard<std::mutex> lock(mu_);
  Span span;
  span.name = std::string(name);
  span.parent = open_spans.empty() ? -1 : open_spans.back();
  span.request = request;
  span.start_ns = NowNs();
  spans_.push_back(std::move(span));
  int index = static_cast<int>(spans_.size()) - 1;
  open_spans.push_back(index);
  return index;
}

void Tracer::End(int index) {
  if (index < 0) return;
  int64_t now = NowNs();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[index].end_ns = now;
  auto it = std::find(open_spans.rbegin(), open_spans.rend(), index);
  if (it != open_spans.rend()) open_spans.erase(std::next(it).base());
}

int Tracer::Record(std::string_view name, int64_t start_ns, int64_t end_ns,
                   int64_t request, int parent) {
  if (!enabled_) return -1;
  std::lock_guard<std::mutex> lock(mu_);
  Span span;
  span.name = std::string(name);
  span.parent = parent != kInnermost ? parent
                : open_spans.empty() ? -1
                                     : open_spans.back();
  span.request = request;
  span.start_ns = start_ns;
  span.end_ns = end_ns;
  spans_.push_back(std::move(span));
  return static_cast<int>(spans_.size()) - 1;
}

std::map<std::string, double> Tracer::SelfMsByLayer() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<int64_t> child_ns(spans_.size(), 0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) child_ns[s.parent] += s.end_ns - s.start_ns;
  }
  std::map<std::string, double> out;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::string layer = s.name.substr(0, s.name.find('.'));
    int64_t self = std::max<int64_t>(0, s.end_ns - s.start_ns - child_ns[i]);
    out[layer] += static_cast<double>(self) / 1e6;
  }
  return out;
}

size_t Tracer::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

bool Tracer::WriteJsonLines(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ofstream os(path);
  if (!os) return false;
  for (const Span& s : spans_) {
    os << "{\"name\": \"" << s.name << "\", \"start_ns\": " << s.start_ns
       << ", \"end_ns\": " << s.end_ns << ", \"parent\": " << s.parent
       << ", \"request\": " << s.request << "}\n";
  }
  return static_cast<bool>(os);
}

ScopedSpan::ScopedSpan(Tracer* tracer, std::string_view name, int64_t request)
    : tracer_(tracer != nullptr && tracer->enabled() ? tracer : nullptr),
      start_ns_(NowNs()) {
  if (tracer_ != nullptr) index_ = tracer_->Begin(name, request);
}

double ScopedSpan::Close() {
  if (end_ns_ == 0) {
    end_ns_ = NowNs();
    if (tracer_ != nullptr) tracer_->End(index_);
  }
  return static_cast<double>(end_ns_ - start_ns_) / 1e9;
}

// --- Checks -------------------------------------------------------------------

void Checker::Expect(bool ok, const std::string& what) {
  std::lock_guard<std::mutex> lock(mu_);
  ++checks_;
  if (!ok) mismatches_.push_back(what);
}

bool Checker::ok() const {
  std::lock_guard<std::mutex> lock(mu_);
  return mismatches_.empty();
}

int64_t Checker::checks() const {
  std::lock_guard<std::mutex> lock(mu_);
  return checks_;
}

std::vector<std::string> Checker::mismatches() const {
  std::lock_guard<std::mutex> lock(mu_);
  return mismatches_;
}

bool WithinGap(double a, double b, double gap) {
  double scale = std::max({std::fabs(a), std::fabs(b), 1e-9});
  return std::fabs(a - b) <= gap * scale + 1e-9;
}

// --- Metric catalogue -----------------------------------------------------------

const std::vector<std::pair<std::string, std::string>>& EndToEndMetrics() {
  static const std::vector<std::pair<std::string, std::string>> kMetrics = {
      {"setup_s", "s"},
      {"primary_cpu_ms", "ms"},
      {"secondary_cpu_ms", "ms"},
      {"answered_share", "share"},
  };
  return kMetrics;
}

const std::vector<std::pair<std::string, std::string>>& PerLayerMetrics() {
  static const std::vector<std::pair<std::string, std::string>> kMetrics = {
      // parse / compile / plan (serve_mixed reads)
      {"paql.parse_us", "us"},
      {"translate.compile_us", "us"},
      {"engine.plan_us", "us"},
      {"engine.cache_hit_rate", "share"},
      // scans and storage (oocore_scan)
      {"translate.scan_ms", "ms"},
      {"translate.rows_examined_per_candidate", "rows"},
      {"relation.blocks_scanned", "count"},
      {"relation.blocks_pruned", "count"},
      {"relation.cache_hit_rate", "share"},
      {"relation.cache_evictions", "count"},
      {"relation.decode_ms", "ms"},
      // DIRECT solving (paper_galaxy)
      {"translate.model_build_ms", "ms"},
      {"lp.root_relaxation_ms", "ms"},
      {"lp.pivots", "count"},
      {"lp.us_per_pivot", "us"},
      {"ilp.solve_s", "s"},
      {"ilp.nodes", "count"},
      {"ilp.budget_exhausted", "count"},
      // SKETCHREFINE (paper_galaxy)
      {"core.sr_ilp_solves", "count"},
      {"core.sr_nodes", "count"},
      {"core.sr_solve_share", "share"},
      {"core.sr_groups_refined", "count"},
      {"core.sr_backtracks", "count"},
      {"core.sr_false_infeasible", "count"},
      {"core.sr_ratio_geomean", "ratio"},
      {"core.sr_ratio_max", "ratio"},
      // offline partitioning
      {"partition.build_s", "s"},
      {"partition.groups", "count"},
      // update path (serve_mixed writes)
      {"partition.absorb_us", "us"},
      {"partition.dirty_group_share", "share"},
      {"core.repair_us", "us"},
      {"core.incremental_repair_share", "share"},
      {"relation.wal_append_us", "us"},
      {"relation.wal_fsyncs", "count"},
      {"relation.wal_bytes_per_user_byte", "ratio"},
      // serving (serve_mixed)
      {"service.queue_wait_ms", "ms"},
      {"service.shed", "count"},
      {"service.gate_yields", "count"},
      {"bench.generator_lag_ms", "ms"},
      // end-to-end figures that are not gated: wall-clock times, which
      // host steal moves by tens of percent from run to run, and the rest
      {"e2e.setup_wall_s", "s"},
      {"e2e.direct_pass_s", "s"},
      {"e2e.sr_pass_s", "s"},
      {"e2e.scan_ms_p50", "ms"},
      {"e2e.scan_ms_tail", "ms"},
      {"e2e.read_ms_p50", "ms"},
      {"e2e.read_ms_p99", "ms"},
      {"e2e.write_ms_p50", "ms"},
      {"e2e.write_ms_tail", "ms"},
      {"e2e.serve_max_qps", "1/s"},
      {"e2e.disk_bytes_per_raw_byte", "ratio"},
      {"e2e.peak_rss_mb", "MB"},
      {"e2e.failure_share", "share"},
      {"bench.host_steal_share", "share"},
      // tracing itself
      {"bench.trace_overhead_share", "share"},
      {"bench.spans", "count"},
      // self time per layer across the traced calls
      {"self_ms.engine", "ms"},
      {"self_ms.paql", "ms"},
      {"self_ms.translate", "ms"},
      {"self_ms.lp", "ms"},
      {"self_ms.ilp", "ms"},
      {"self_ms.core", "ms"},
      {"self_ms.partition", "ms"},
      {"self_ms.relation", "ms"},
      {"self_ms.service", "ms"},
  };
  return kMetrics;
}

void AddSelfTimes(const Tracer& tracer, Outcome* out) {
  auto self = tracer.SelfMsByLayer();
  for (const auto& [name, unit] : PerLayerMetrics()) {
    if (name.rfind("self_ms.", 0) != 0) continue;
    std::string layer = name.substr(8);
    auto it = self.find(layer);
    out->Layer(name, it == self.end() ? 0.0 : it->second, unit);
  }
  out->Layer("bench.spans", static_cast<double>(tracer.size()), "count");
}

double PeakRssMb() {
  struct rusage usage;
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double ProcessCpuSeconds() {
  timespec ts;
  if (clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts) != 0) return 0;
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) / 1e9;
}

std::string FormatNumber(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

}  // namespace perfbench
