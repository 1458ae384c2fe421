// oocore_scan: a working set larger than the program's cache. Quantized
// Galaxy rows are written once to a PQB block store, opened out of core
// with Engine::OpenDisk under a block cache an eighth of the decoded size,
// and queried through Session::Execute by one closed-loop caller. Most
// statements select an objid window at a random position (the store is
// clustered on objid, so zone maps prune all other blocks); the rest
// filter on unclustered columns and scan every block. All bound COUNT to a
// few rows, so the solver does little.
#include <algorithm>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <optional>

#include "common/rng.h"
#include "common/stopwatch.h"
#include "common/str_util.h"
#include "engine/engine.h"
#include "paql/parser.h"
#include "relation/block_store.h"
#include "report.h"
#include "spans.h"
#include "translate/compiled_query.h"
#include "translate/vector_expr.h"
#include "workload/galaxy.h"
#include "workloads.h"

namespace perfbench {
namespace {

using paql::relation::RowId;
using paql::relation::Table;

/// Round every double column to 4 decimal digits (SDSS catalog CSV
/// precision): values of the exact form llround(v * 1e4) / 1e4, which the
/// block store's scaled-decimal encoding round-trips bit for bit.
Table Quantize(const Table& source) {
  Table out{source.schema()};
  out.Reserve(source.num_rows());
  const size_t cols = source.num_columns();
  std::vector<paql::relation::Value> row(cols);
  for (RowId r = 0; r < source.num_rows(); ++r) {
    for (size_t c = 0; c < cols; ++c) {
      if (source.schema().column(c).type == paql::relation::DataType::kInt64) {
        row[c] = paql::relation::Value(source.GetInt64(r, c));
      } else {
        row[c] = paql::relation::Value(
            static_cast<double>(std::llround(source.GetDouble(r, c) * 1e4)) /
            1e4);
      }
    }
    out.AppendRowUnchecked(row);
  }
  return out;
}

std::string Lit(double v) { return paql::FormatDouble(v, 17); }

/// The seeded statement templates.
class StatementStream {
 public:
  StatementStream(uint64_t seed, size_t rows) : rng_(seed), rows_(rows) {}

  std::string Next() {
    const int64_t k = rng_.UniformInt(2, 4);
    const bool windowed = rng_.Uniform() < 0.7;
    std::string where;
    if (windowed) {
      // A window of 1/25 of the rows at a random position, plus a
      // magnitude cut keeping ~3% of it.
      const int64_t width = static_cast<int64_t>(rows_ / 25);
      const int64_t lo = rng_.UniformInt(0, static_cast<int64_t>(rows_) - width);
      where = paql::StrCat("G.objid BETWEEN ", 1'000'000'000 + lo, " AND ",
                           1'000'000'000 + lo + width - 1, " AND G.r <= ",
                           Lit(rng_.Uniform(16.4, 16.6)));
    } else {
      // Unclustered columns: zone maps cannot prune, every block is read;
      // ~0.06% of the rows qualify.
      where = paql::StrCat("G.redshift >= ", Lit(rng_.Uniform(0.78, 0.82)),
                           " AND G.petroRad_r <= ", Lit(rng_.Uniform(1.9, 2.1)));
    }
    const bool minimize = rng_.Uniform() < 0.5;
    return paql::StrCat(
        "SELECT PACKAGE(G) AS P FROM Galaxy G REPEAT 0 WHERE ", where,
        " SUCH THAT COUNT(P.*) = ", k, " AND SUM(P.petroRad_r) <= ",
        Lit(3.0 * static_cast<double>(k)),
        minimize ? " MINIMIZE SUM(P.g)" : " MAXIMIZE SUM(P.petroFlux_r)");
  }

 private:
  paql::Rng rng_;
  size_t rows_;
};

struct Answer {
  bool ok = false;
  paql::StatusCode code = paql::StatusCode::kOk;
  double objective = 0;
  paql::core::Package package;
};

Answer ToAnswer(const paql::Result<paql::QueryResult>& r) {
  Answer a;
  if (!r.ok()) {
    a.code = r.status().code();
    return a;
  }
  a.ok = true;
  a.objective = r->objective;
  a.package = r->package;
  a.package.Normalize();
  return a;
}

bool Identical(const Answer& a, const Answer& b) {
  if (a.ok != b.ok || a.code != b.code) return false;
  if (!a.ok) return true;
  return std::memcmp(&a.objective, &b.objective, sizeof(double)) == 0 &&
         a.package.rows == b.package.rows &&
         a.package.multiplicity == b.package.multiplicity;
}

class OocoreScan {
 public:
  OocoreScan(const RunConfig& config, Tracer* tracer, Outcome* out)
      : config_(config), tracer_(tracer), out_(out) {}

  void Run() {
    rows_ = config_.tiny ? 40'000 : 300'000;
    store_path_ = config_.workdir + "/galaxy.pqb";
    TimeSetUp(3, [&](int) { SetUp(); }, out_);

    StatementStream stream(DeriveSeed(config_.seed, 7), rows_);
    paql::Rng sampler(DeriveSeed(config_.seed, 8));
    const double measure_s = config_.trace ? config_.seconds / 2 : config_.seconds;
    std::vector<double> latencies, cpu;
    Measure(stream, sampler, measure_s, /*traced=*/false, &latencies, &cpu);
    const Tail tail = TailOf(latencies);
    const Tail cpu_tail = TailOf(cpu);
    const double p50 = Median(latencies);
    const double cpu_p50 = Median(cpu);
    out_->E2e("primary_cpu_ms", cpu_p50, "ms");
    out_->E2e("secondary_cpu_ms", cpu_tail.value, "ms");
    out_->Layer("e2e.scan_ms_p50", p50, "ms");
    out_->Layer("e2e.scan_ms_tail", tail.value, "ms");
    out_->Note("scan_ms_p50 = " + FormatNumber(p50) + " ms  (" +
               FormatNumber(cpu_p50) + " CPU ms = primary_cpu_ms)");
    out_->Note("scan_ms_tail = " + FormatNumber(tail.value) + " ms  (p" +
               FormatNumber(tail.percentile) + " of " +
               std::to_string(tail.samples) + " statements; " +
               FormatNumber(cpu_tail.value) + " CPU ms = secondary_cpu_ms)");
    out_->Note("disk_bytes_per_raw_byte = " + FormatNumber(disk_ratio_) +
               " ratio  (" + std::to_string(stored_bytes_) + " stored / " +
               std::to_string(raw_bytes_) + " raw bytes; block cache " +
               std::to_string(cache_bytes_) + " bytes)");
    out_->Layer("e2e.disk_bytes_per_raw_byte", disk_ratio_, "ratio");

    if (config_.trace) {
      tracer_->set_enabled(true);
      std::vector<double> traced, traced_cpu;
      const auto before = session_->block_cache()->stats();
      Measure(stream, sampler, config_.seconds / 2, /*traced=*/true, &traced,
              &traced_cpu);
      const auto after = session_->block_cache()->stats();
      const double lookups = static_cast<double>(
          after.hits + after.misses - before.hits - before.misses);
      out_->Layer("relation.cache_hit_rate",
                  lookups > 0 ? (after.hits - before.hits) / lookups : 0,
                  "share");
      out_->Layer("relation.cache_evictions",
                  static_cast<double>(after.evictions - before.evictions) /
                      static_cast<double>(traced.size()),
                  "count");
      out_->Layer("bench.trace_overhead_share",
                  Median(traced_cpu) / cpu_p50 - 1.0, "share");
      const double n = static_cast<double>(traced.size());
      out_->Layer("relation.blocks_scanned", blocks_scanned_ / n, "count");
      out_->Layer("relation.blocks_pruned", blocks_pruned_ / n, "count");
      out_->Layer("partition.build_s", partition_build_s_, "s");
      out_->Layer("partition.groups", static_cast<double>(partition_groups_),
                  "count");
      Replay(StatementStream(DeriveSeed(config_.seed, 9), rows_));
    }
    for (const auto& f : failures_) out_->Note("no package: " + f);
    Verify();
    std::filesystem::remove(store_path_);
  }

 private:
  void SetUp() {
    session_.reset();
    memory_.reset();
    auto table = std::make_shared<const Table>(Quantize(
        paql::workload::MakeGalaxyTable(rows_, DeriveSeed(config_.seed, 1))));
    PB_CHECK(paql::relation::WriteBlockStore(*table, store_path_).ok(),
             "cannot write " + store_path_);
    raw_bytes_ = rows_ * table->num_columns() * sizeof(double);
    cache_bytes_ = raw_bytes_ / 8;
    paql::EngineOptions options;
    options.block_cache_bytes = cache_bytes_;
    auto session = paql::Engine::OpenDisk(store_path_, options);
    PB_CHECK(session.ok(), session.status().ToString());
    session_.emplace(std::move(*session));
    // Build the offline partitioning SKETCHREFINE plans use (the planner
    // routes tables of this size to SKETCHREFINE).
    paql::Stopwatch partition;
    auto plan = session_->PlanQuery(StatementStream(0, rows_).Next());
    partition_build_s_ = partition.ElapsedSeconds();
    PB_CHECK(plan.ok(), plan.status().ToString());
    partition_groups_ = plan->partition_groups;
    memory_ = std::move(table);

    auto reader = paql::relation::BlockStoreReader::Open(store_path_);
    PB_CHECK(reader.ok(), reader.status().ToString());
    stored_bytes_ = (*reader)->stored_bytes();
    disk_ratio_ = static_cast<double>(stored_bytes_) /
                  static_cast<double>(raw_bytes_);
  }

  /// Closed loop for `seconds`: per statement, its wall-clock latency and
  /// the CPU time the process spent on it, in ms.
  void Measure(StatementStream& stream, paql::Rng& sampler, double seconds,
               bool traced, std::vector<double>* latencies,
               std::vector<double>* cpu) {
    paql::Stopwatch watch;
    do {
      const std::string text = stream.Next();
      const int64_t request = next_request_++;
      ScopedSpan span(traced ? tracer_ : nullptr, "engine.execute", request);
      const int64_t start = NowNs();
      const double cpu0 = ProcessCpuSeconds();
      auto r = session_->Execute(text);
      cpu->push_back((ProcessCpuSeconds() - cpu0) * 1e3);
      latencies->push_back(static_cast<double>(NowNs() - start) / 1e6);
      if (traced && r.ok()) {
        RecordPhases(tracer_, start, *r, request);
        blocks_scanned_ += static_cast<double>(r->stats.blocks_scanned);
        blocks_pruned_ += static_cast<double>(r->stats.blocks_pruned);
      }
      span.Close();
      ++out_->attempted;
      if (!r.ok()) {
        out_->NoPackage(r.status().code());
        if (failures_.size() < 3) failures_.push_back(r.status().ToString() + ": " + text);
      }
      // A seeded sample is re-run on the in-memory table after measuring.
      if (samples_.empty() || sampler.Uniform() < 0.1) {
        samples_.push_back({text, ToAnswer(r)});
      }
    } while (watch.ElapsedSeconds() < seconds);
  }

  /// Re-run the sampled statements on the same rows held in memory: the
  /// packages must be bit-identical to the out-of-core answers.
  void Verify() {
    paql::EngineOptions options;
    auto memory = paql::Engine::Open(
        std::shared_ptr<const paql::relation::ColumnSource>(memory_), "Galaxy",
        options);
    PB_CHECK(memory.ok(), memory.status().ToString());
    for (size_t i = 0; i < samples_.size(); ++i) {
      const auto& [text, disk] = samples_[i];
      Answer expected = ToAnswer(memory->Execute(text));
      if (config_.corrupt_expected && i == 0) {
        expected.objective += 1.0;
      }
      out_->checker.Expect(Identical(disk, expected),
                           "out-of-core answer differs from in-memory: " + text);
    }
    out_->Note("verified " + std::to_string(samples_.size()) +
               " sampled statements bit-identical against the in-memory table");
  }

  /// The traced layer replay: statements through parse, compile and the
  /// vectorized out-of-core scan, plus raw block decodes.
  void Replay(StatementStream stream) {
    auto source = session_->GetTable("Galaxy");
    PB_CHECK(source.ok(), source.status().ToString());
    const int threads = session_->options().exec.EffectiveThreads();
    double parse_s = 0, compile_s = 0, scan_s = 0, examined_per_candidate = 0;
    const int kStatements = config_.tiny ? 4 : 16;
    for (int i = 0; i < kStatements; ++i) {
      const std::string text = stream.Next();
      ScopedSpan parse_span(tracer_, "paql.parse", i);
      auto parsed = paql::lang::ParsePackageQuery(text);
      parse_s += parse_span.Close();
      PB_CHECK(parsed.ok(), parsed.status().ToString());
      ScopedSpan compile_span(tracer_, "translate.compile", i);
      auto cq = paql::translate::CompiledQuery::Compile(*parsed,
                                                        (*source)->schema());
      compile_s += compile_span.Close();
      PB_CHECK(cq.ok(), cq.status().ToString());
      paql::translate::ScanCounters counters;
      ScopedSpan scan_span(tracer_, "translate.scan", i);
      auto rows = cq->ComputeBaseRowsVectorized(**source, threads, &counters);
      scan_s += scan_span.Close();
      const double scanned = static_cast<double>(counters.blocks_scanned.load());
      const double pruned = static_cast<double>(counters.blocks_pruned.load());
      const double examined =
          scanned + pruned > 0
              ? static_cast<double>(rows_) * scanned / (scanned + pruned)
              : static_cast<double>(rows_);
      examined_per_candidate +=
          examined / static_cast<double>(std::max<size_t>(1, rows.size()));
    }
    out_->Layer("paql.parse_us", parse_s / kStatements * 1e6, "us");
    out_->Layer("translate.compile_us", compile_s / kStatements * 1e6, "us");
    out_->Layer("translate.scan_ms", scan_s / kStatements * 1e3, "ms");
    out_->Layer("translate.rows_examined_per_candidate",
                examined_per_candidate / kStatements, "rows");

    auto reader = paql::relation::BlockStoreReader::Open(store_path_);
    PB_CHECK(reader.ok(), reader.status().ToString());
    paql::Rng pick(DeriveSeed(config_.seed, 10));
    double decode_s = 0;
    const int kDecodes = 32;
    for (int i = 0; i < kDecodes; ++i) {
      size_t col = static_cast<size_t>(
          pick.UniformInt(0, static_cast<int64_t>(memory_->num_columns()) - 1));
      size_t block = static_cast<size_t>(
          pick.UniformInt(0, static_cast<int64_t>((*reader)->num_blocks()) - 1));
      ScopedSpan span(tracer_, "relation.decode_block", i);
      auto decoded = (*reader)->DecodeBlock(col, block);
      decode_s += span.Close();
      PB_CHECK(decoded.ok(), decoded.status().ToString());
    }
    out_->Layer("relation.decode_ms", decode_s / kDecodes * 1e3, "ms");
  }

  const RunConfig& config_;
  Tracer* tracer_;
  Outcome* out_;
  size_t rows_ = 0;
  std::string store_path_;
  size_t raw_bytes_ = 0, stored_bytes_ = 0, cache_bytes_ = 0;
  double disk_ratio_ = 0;
  double partition_build_s_ = 0;  // the last set-up's, via PlanQuery
  size_t partition_groups_ = 0;
  std::optional<paql::Session> session_;
  std::shared_ptr<const Table> memory_;
  std::vector<std::pair<std::string, Answer>> samples_;
  std::vector<std::string> failures_;  // the first few, for the report
  double blocks_scanned_ = 0, blocks_pruned_ = 0;
  int64_t next_request_ = 0;
};

}  // namespace

void RunOocoreScan(const RunConfig& config, Tracer* tracer, Outcome* out) {
  OocoreScan(config, tracer, out).Run();
}

}  // namespace perfbench
