// serve_mixed: service::Server in process on loopback with durability on
// (WAL with batched fsync). Interactive RUN requests arrive open-loop at a
// fixed offered rate, drawn from seeded templates over a Zipf-skewed pool
// larger than the QueryCache, so the cache sees hits and misses; latency is
// timed from when each request was due. One writer connection sends
// INSERT/DELETE batches to a table with WATCHed standing queries, and some
// reads target that table. A rate ladder then finds the highest offered
// read rate that still meets the p99 limit without a growing backlog.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <deque>
#include <filesystem>
#include <map>
#include <optional>
#include <sstream>
#include <thread>

#include "common/rng.h"
#include "common/stopwatch.h"
#include "common/str_util.h"
#include "core/incremental.h"
#include "core/sketch_refine.h"
#include "engine/engine.h"
#include "paql/parser.h"
#include "partition/dynamic_update.h"
#include "partition/partitioner.h"
#include "relation/table_version.h"
#include "relation/wal.h"
#include "report.h"
#include "service/server.h"
#include "translate/compiled_query.h"
#include "workload/galaxy.h"
#include "workloads.h"

namespace perfbench {
namespace {

using paql::relation::RowId;
using paql::relation::Table;

constexpr double kGap = 1e-4;
constexpr const char* kStatic = "Stars";
constexpr const char* kWatched = "Feed";
constexpr double kP99LimitMs = 50.0;  // the serve_max_qps latency limit
constexpr int kReaders = 3;           // + 1 writer = 4 connections
constexpr int kInsertRows = 40;       // rows per INSERT batch
constexpr int kDeleteRows = 20;       // row ids per DELETE batch
constexpr double kZipf = 0.9;         // read skew over the statement pool
constexpr int64_t kWindowRows = 2'000;  // static-table rows one read selects

std::string Lit(double v) { return paql::FormatDouble(v, 17); }

struct Sizes {
  size_t static_rows, watched_rows, pool;
  double read_rate, write_rate, ladder_step_s;
};

Sizes SizesFor(const RunConfig& config) {
  if (config.tiny) return {2'000, 21'000, 40, 40, 4, 0.3};
  return {10'000, 24'000, 400, 150, 2, 1.0};
}

paql::EngineOptions EngineOptionsForServe() {
  paql::EngineOptions options;
  options.exec.branch_and_bound.gap_tol = kGap;
  return options;
}

/// One blocking line-protocol connection to the server.
class Conn {
 public:
  Conn() = default;
  ~Conn() { Close(); }
  Conn(const Conn&) = delete;
  Conn& operator=(const Conn&) = delete;
  bool Open(uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) return false;
    int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    return ::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0;
  }
  void Close() {
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
  }
  /// Send one request line; collect response lines through the final
  /// "OK <micros>" or "ERR ..." line. False on a transport error.
  bool Request(const std::string& line, std::vector<std::string>* lines) {
    lines->clear();
    std::string out = line + "\n";
    size_t sent = 0;
    while (sent < out.size()) {
      ssize_t n = ::send(fd_, out.data() + sent, out.size() - sent, MSG_NOSIGNAL);
      if (n <= 0) return false;
      sent += static_cast<size_t>(n);
    }
    while (true) {
      size_t nl;
      while ((nl = buf_.find('\n')) != std::string::npos) {
        lines->push_back(buf_.substr(0, nl));
        buf_.erase(0, nl + 1);
        const std::string& last = lines->back();
        if (last.rfind("OK ", 0) == 0 || last.rfind("ERR ", 0) == 0) return true;
      }
      char chunk[65536];
      ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n <= 0) return false;
      buf_.append(chunk, static_cast<size_t>(n));
    }
  }

 private:
  int fd_ = -1;
  std::string buf_;
};

/// Parsed "PKG <count> <objective> <id:mult>..." line.
bool ParsePackage(const std::string& line, paql::core::Package* package) {
  std::istringstream is(line);
  std::string tag;
  size_t count = 0;
  double objective = 0;
  if (!(is >> tag >> count >> objective) || tag != "PKG") return false;
  package->rows.clear();
  package->multiplicity.clear();
  std::string pair;
  while (is >> pair) {
    size_t colon = pair.find(':');
    if (colon == std::string::npos) return false;
    package->rows.push_back(std::stoul(pair.substr(0, colon)));
    package->multiplicity.push_back(std::stoll(pair.substr(colon + 1)));
  }
  return package->rows.size() == count;
}

int64_t ServerMicros(const std::vector<std::string>& lines) {
  return lines.empty() || lines.back().rfind("OK ", 0) != 0
             ? -1
             : std::stoll(lines.back().substr(3));
}

/// A read request of the stream.
struct Read {
  size_t statement = 0;
  int64_t due_ns = 0;
};

/// Per-read outcome, kept for the answer checks and the latency figures.
struct ReadResult {
  size_t statement = 0;
  bool ok = false;
  double latency_ms = 0;  // completion - due
  double lag_ms = 0;      // sent - due
  double queue_ms = 0;    // latency - server-reported execution time
  paql::core::Package package;
};

class ServeMixed {
 public:
  ServeMixed(const RunConfig& config, Tracer* tracer, Outcome* out)
      : config_(config), tracer_(tracer), out_(out), sizes_(SizesFor(config)) {}

  void Run() {
    TimeSetUp(5, [&](int rep) { SetUp(rep); }, out_);
    WarmUp();

    // Writes alone and reads alone, interleaved for half the measuring
    // time: an insert+delete pair, then a quarter second of closed-loop
    // reads, and again. The host's speed drifts over seconds; measured in
    // two separate 5 s blocks, each figure spread by 0.2-0.3 from run to
    // run, so both now sample the same, longer stretch.
    // secondary_cpu_ms is the CPU cost of one acknowledged batch: inserts
    // and deletes cost differently, so it is the median over pairs of the
    // pair's mean. primary_cpu_ms is the median CPU cost of one read.
    paql::Rng write_rng(DeriveSeed(config_.seed, 58));
    std::vector<double> alone_ms, alone_cpu_ms, pair_cpu_ms, read_cpu_ms;
    const size_t min_pairs = config_.tiny ? 1 : 12;
    paql::Stopwatch alone_watch;
    while (pair_cpu_ms.size() < min_pairs ||
           alone_watch.ElapsedSeconds() < config_.seconds * 0.5) {
      for (int i = 0; i < 2; ++i) {
        PB_CHECK(WriteBatch(write_rng, &alone_ms, &alone_cpu_ms), "write failed");
      }
      pair_cpu_ms.push_back(0.5 * (alone_cpu_ms[alone_cpu_ms.size() - 2] +
                                   alone_cpu_ms.back()));
      ReadCpuMs(0.25, &read_cpu_ms);
    }
    const double write_cpu = Median(pair_cpu_ms);
    out_->E2e("secondary_cpu_ms", write_cpu, "ms");
    out_->Note("write batch alone: " + FormatNumber(Median(alone_ms)) +
               " ms median, " + FormatNumber(write_cpu) +
               " CPU ms = secondary_cpu_ms (over " +
               std::to_string(alone_ms.size()) + " batches)");
    const double read_cpu = Median(read_cpu_ms);
    out_->E2e("primary_cpu_ms", read_cpu, "ms");
    out_->Note("read alone: " + FormatNumber(read_cpu) +
               " CPU ms per read (median of " +
               std::to_string(read_cpu_ms.size()) + ") = primary_cpu_ms");
    if (config_.trace) {
      tracer_->set_enabled(true);
      std::vector<double> traced_cpu_ms, queue_ms;
      ReadCpuMs(config_.seconds * 0.15, &traced_cpu_ms, &queue_ms);
      tracer_->set_enabled(false);
      out_->Layer("bench.trace_overhead_share",
                  Median(traced_cpu_ms) / read_cpu - 1.0, "share");
      out_->Layer("service.queue_wait_ms", Median(queue_ms), "ms");
    }

    // Reads and writes together at the fixed offered rate: the latencies.
    write_ms_.clear();
    const double mixed_s = config_.seconds * 0.15;
    std::vector<double> read_ms, lag_ms;
    for (const auto& r : Phase(sizes_.read_rate, mixed_s, true)) {
      if (!r.ok) continue;
      read_ms.push_back(r.latency_ms);
      lag_ms.push_back(r.lag_ms);
    }
    out_->Layer("bench.generator_lag_ms", Percentile(lag_ms, 99), "ms");
    const double p50 = Median(read_ms);
    const double p99 = Percentile(read_ms, 99);
    const Tail write_tail = TailOf(write_ms_);
    const double write_p50 = Median(write_ms_);
    out_->Note("read_ms_p50 = " + FormatNumber(p50) + " ms  (" +
               std::to_string(read_ms.size()) + " reads offered at " +
               FormatNumber(sizes_.read_rate) + "/s with writes at " +
               FormatNumber(sizes_.write_rate) + " batches/s)");
    out_->Note("read_ms_p99 = " + FormatNumber(p99) + " ms");
    out_->Note("write_ms_p50 = " + FormatNumber(write_p50) +
               " ms  (to the UPD ... OK acknowledgement)");
    out_->Note("write_ms_tail = " + FormatNumber(write_tail.value) + " ms  (p" +
               FormatNumber(write_tail.percentile) + " of " +
               std::to_string(write_tail.samples) + " batches)");
    out_->Note("watched-table reads = " + std::to_string(watched_read_ms_.size()) +
               ", median " + FormatNumber(Median(watched_read_ms_)) +
               " ms  (SKETCHREFINE over the absorbed partitioning)");
    out_->Layer("e2e.read_ms_p50", p50, "ms");
    out_->Layer("e2e.read_ms_p99", p99, "ms");
    out_->Layer("e2e.write_ms_p50", write_p50, "ms");
    out_->Layer("e2e.write_ms_tail", write_tail.value, "ms");

    const double max_qps = Ladder(config_.seconds * 0.2);
    out_->Note("serve_max_qps = " + FormatNumber(max_qps) +
               " 1/s  (highest offered read rate with p99 <= " +
               FormatNumber(kP99LimitMs) + " ms and no backlog" +
               (ladder_missed_ ? ")" : "; every step held, so the limit lies higher)"));
    out_->Layer("e2e.serve_max_qps", max_qps, "1/s");

    const auto sched = server_->scheduler().stats();
    const auto cache = catalog_->query_cache()->stats();
    const auto reg = server_->registry().stats();
    out_->Layer("service.shed",
                static_cast<double>(sched.shed_queue + sched.shed_memory), "count");
    out_->Layer("service.gate_yields", static_cast<double>(sched.gate_yields),
                "count");
    out_->Layer("engine.cache_hit_rate",
                cache.hits + cache.misses > 0
                    ? static_cast<double>(cache.hits) / (cache.hits + cache.misses)
                    : 0,
                "share");
    out_->Layer("core.incremental_repair_share",
                reg.repairs > 0 ? static_cast<double>(reg.incremental) / reg.repairs
                                : 0,
                "share");
    out_->Layer("relation.wal_fsyncs",
                reg.batches > 0 ? static_cast<double>(reg.wal_syncs) / reg.batches
                                : 0,
                "count");
    out_->Layer("relation.wal_bytes_per_user_byte",
                static_cast<double>(DirBytes(wal_dir_)) /
                    static_cast<double>(std::max<size_t>(1, user_write_bytes_)),
                "ratio");
    out_->Note("cache: " + std::to_string(cache.hits) + " hits / " +
               std::to_string(cache.misses) + " misses (capacity 128 statements, "
               "pool " + std::to_string(sizes_.pool) + " statements); " +
               std::to_string(cache.partition_entries) + " cached partitionings");

    CheckStaticReads();
    std::vector<paql::StandingQuery> live = server_->registry().List();
    CheckStandingQueries(live);
    for (auto& c : readers_) c->Close();
    writer_->Close();
    server_->Stop();
    CheckRecovery(live);
    if (config_.trace) Replay();
    std::filesystem::remove_all(config_.workdir + "/serve");
  }

 private:
  void SetUp(int rep) {
    readers_.clear();
    writer_.reset();
    if (server_) server_->Stop();
    server_.reset();
    catalog_.reset();
    stars_ = std::make_shared<const Table>(paql::workload::MakeGalaxyTable(
        sizes_.static_rows, DeriveSeed(config_.seed, 20)));
    feed_ = std::make_shared<const Table>(paql::workload::MakeGalaxyTable(
        sizes_.watched_rows, DeriveSeed(config_.seed, 21)));
    extra_ = std::make_shared<const Table>(paql::workload::MakeGalaxyTable(
        4'000, DeriveSeed(config_.seed, 22)));
    BuildPool();

    catalog_ = std::make_unique<paql::service::Catalog>();
    PB_CHECK(catalog_->AddTable(kStatic, stars_).ok(), "add static table");
    PB_CHECK(catalog_->AddTable(kWatched, feed_).ok(), "add watched table");
    wal_dir_ = config_.workdir + "/serve/wal-" + std::to_string(rep);
    std::filesystem::remove_all(wal_dir_);
    std::filesystem::create_directories(wal_dir_);
    paql::service::ServerOptions options;
    options.scheduler.engine = EngineOptionsForServe();
    options.wal_dir = wal_dir_;
    options.wal_sync = paql::relation::WalSync::kBatch;
    server_ = std::make_unique<paql::service::Server>(*catalog_, options);
    PB_CHECK(server_->Start().ok(), "server start");
    for (int i = 0; i < kReaders; ++i) {
      readers_.push_back(std::make_unique<Conn>());
      PB_CHECK(readers_.back()->Open(server_->port()), "connect reader");
    }
    writer_ = std::make_unique<Conn>();
    PB_CHECK(writer_->Open(server_->port()), "connect writer");
    std::vector<std::string> lines;
    for (const auto& text : standing_texts_) {
      PB_CHECK(writer_->Request("WATCH " + text, &lines) &&
                   lines.back().rfind("OK ", 0) == 0,
               "WATCH failed: " + (lines.empty() ? "" : lines.back()));
    }
    live_rows_.clear();
    for (RowId r = 0; r < feed_->num_rows(); ++r) live_rows_.push_back(r);
    next_row_id_ = feed_->num_rows();
    next_extra_ = 0;
    batches_.clear();
    write_ms_.clear();
    watched_read_ms_.clear();
    user_write_bytes_ = 0;
  }

  /// The statement pool of the reader connections: small windowed DIRECT
  /// reads of the static table. The writer connection reads the watched
  /// table between its batches (watched_texts_).
  void BuildPool() {
    paql::Rng rng(DeriveSeed(config_.seed, 23));
    pool_.clear();
    for (size_t i = 0; i < sizes_.pool; ++i) {
      // One template with a cap that rarely binds, so every pool entry
      // costs about the same (no deep branch-and-bound) and the skew
      // decides cache hits, not cost: only the window moves.
      const int64_t lo = rng.UniformInt(
          0, static_cast<int64_t>(sizes_.static_rows) - kWindowRows);
      pool_.push_back(paql::StrCat(
          "SELECT PACKAGE(S) AS P FROM ", kStatic,
          " S REPEAT 0 WHERE S.objid BETWEEN ", 1'000'000'000 + lo, " AND ",
          1'000'000'000 + lo + kWindowRows - 1,
          " SUCH THAT COUNT(P.*) = 5 AND SUM(P.petroRad_r) <= 50"
          " MINIMIZE SUM(P.g)"));
    }
    watched_texts_.clear();
    for (int i = 0; i < 8; ++i) {
      const int64_t k = rng.UniformInt(2, 4);
      watched_texts_.push_back(paql::StrCat(
          "SELECT PACKAGE(F) AS P FROM ", kWatched,
          " F REPEAT 0 SUCH THAT COUNT(P.*) = ", k, " AND SUM(P.redshift) <= ",
          Lit(rng.Uniform(0.2, 0.3) * static_cast<double>(k)),
          " MAXIMIZE SUM(P.petroRad_r)"));
    }
    // Caps that rarely bind, so a batch's repair stays incremental (a
    // repair whose dirty-group subproblem is infeasible falls back to a
    // full SKETCHREFINE run, and that would make the write cost depend on
    // the seed's data rather than on the update path).
    standing_texts_ = {
        paql::StrCat("SELECT PACKAGE(F) AS P FROM ", kWatched,
                     " F REPEAT 0 SUCH THAT COUNT(P.*) = 5 AND SUM(P.petroRad_r) <= 40"
                     " MINIMIZE SUM(P.g)"),
        paql::StrCat("SELECT PACKAGE(F) AS P FROM ", kWatched,
                     " F REPEAT 0 SUCH THAT COUNT(P.*) = 3 AND SUM(P.redshift) <= 2"
                     " MAXIMIZE SUM(P.petroFlux_r)")};
  }

  /// The next write batch: alternately kInsertRows inserted rows and
  /// kDeleteRows deleted ids.
  std::string NextBatch(paql::Rng& rng, paql::relation::TableDelta* delta) {
    const bool insert = batches_.size() % 2 == 0;
    std::string line;
    if (insert) {
      line = paql::StrCat("INSERT ", kWatched, " ");
      for (int i = 0; i < kInsertRows; ++i) {
        const RowId src = static_cast<RowId>(next_extra_++ % extra_->num_rows());
        std::vector<paql::relation::Value> row;
        if (i > 0) line += ';';
        for (size_t c = 0; c < extra_->num_columns(); ++c) {
          if (c == 0) {
            int64_t objid = 2'000'000'000 + static_cast<int64_t>(next_row_id_);
            row.emplace_back(objid);
            line += std::to_string(objid);
          } else {
            double v = extra_->GetDouble(src, c);
            row.emplace_back(v);
            line += ',';
            line += Lit(v);
          }
        }
        delta->Insert(std::move(row));
        live_rows_.push_back(next_row_id_++);
      }
    } else {
      line = paql::StrCat("DELETE ", kWatched, " ");
      for (int i = 0; i < kDeleteRows; ++i) {
        size_t pick = static_cast<size_t>(
            rng.UniformInt(0, static_cast<int64_t>(live_rows_.size()) - 1));
        RowId id = live_rows_[pick];
        live_rows_[pick] = live_rows_.back();
        live_rows_.pop_back();
        if (i > 0) line += ',';
        line += std::to_string(id);
        delta->Delete(id);
      }
    }
    return line;
  }

  /// Send one batch and, once it is acknowledged, read the table just
  /// written on the same connection: such reads never overlap a batch (see
  /// README.md, known defects). Records the batch latency into `write_ms`;
  /// false when the batch failed (the client's row-id bookkeeping would
  /// drift, so the caller stops writing).
  bool WriteBatch(paql::Rng& rng, std::vector<double>* write_ms,
                  std::vector<double>* write_cpu_ms = nullptr) {
    std::vector<std::string> lines;
    paql::relation::TableDelta delta;
    std::string line = NextBatch(rng, &delta);
    user_write_bytes_ += line.size();
    const int64_t start = NowNs();
    const double cpu0 = ProcessCpuSeconds();
    bool transport = writer_->Request(line, &lines);
    const double ms = static_cast<double>(NowNs() - start) / 1e6;
    if (write_cpu_ms != nullptr) {
      write_cpu_ms->push_back((ProcessCpuSeconds() - cpu0) * 1e3);
    }
    ++out_->attempted;
    if (!transport || ServerMicros(lines) < 0 || lines.size() < 2 ||
        lines[0].rfind("UPD ", 0) != 0) {
      ++out_->failed;
      return false;
    }
    write_ms->push_back(ms);
    batches_.push_back(std::move(delta));
    const std::string& text =
        watched_texts_[batches_.size() % watched_texts_.size()];
    const int64_t read_start = NowNs();
    bool read_ok =
        writer_->Request("RUN " + text, &lines) && ServerMicros(lines) >= 0;
    watched_read_ms_.push_back(static_cast<double>(NowNs() - read_start) / 1e6);
    ++out_->attempted;
    if (!read_ok) ++out_->failed;
    return true;
  }

  /// Write until the write path reaches its steady state before timing:
  /// every row-count change moves the default partition size threshold
  /// (rows/10), so reads of the written table keep adding partitionings
  /// to the registry, and every batch absorbs into all of them, until the
  /// registry is full.
  void WarmUp() {
    paql::Rng rng(DeriveSeed(config_.seed, 59));
    std::vector<double> ms;
    const size_t capacity = paql::engine::QueryCache::Options().partition_capacity;
    for (int i = 0; i < 200; ++i) {
      if (catalog_->query_cache()->stats().partition_entries >= capacity) break;
      PB_CHECK(WriteBatch(rng, &ms), "warm-up write failed");
    }
    out_->Note("warm-up: " + std::to_string(ms.size()) + " batches, " +
               std::to_string(catalog_->query_cache()->stats().partition_entries) +
               " cached partitionings, last batch " +
               FormatNumber(ms.empty() ? 0 : ms.back()) + " ms");
  }

  /// Reads alone, one connection in a closed loop for `seconds`, drawn from
  /// the pool like the open-loop reads: appends the process CPU ms of each
  /// read to `cpu_ms` (server and client together; nothing else runs, so
  /// each read's CPU is its own). The static table's cached statements are evicted
  /// before each read, so every read is parsed, planned and solved: a
  /// cache hit is mostly thread hand-offs, whose CPU cost moved by 2x from
  /// run to run with the host's load. Optionally collects each read's
  /// queueing delay.
  void ReadCpuMs(double seconds, std::vector<double>* cpu_ms,
                 std::vector<double>* queue_ms = nullptr) {
    paql::Rng pick(DeriveSeed(config_.seed, 40 + phase_++));
    std::vector<std::string> lines;
    const int64_t end = NowNs() + static_cast<int64_t>(seconds * 1e9);
    while (NowNs() < end) {
      ReadResult r;
      r.statement = static_cast<size_t>(
          pick.Zipf(static_cast<int64_t>(pool_.size()), kZipf) - 1);
      catalog_->query_cache()->EvictStatements(kStatic);
      const int64_t request = next_request_++;
      ScopedSpan span(tracer_, "service.request", request);
      const int64_t start = NowNs();
      const double cpu0 = ProcessCpuSeconds();
      const bool transport = readers_[0]->Request("RUN " + pool_[r.statement], &lines);
      cpu_ms->push_back((ProcessCpuSeconds() - cpu0) * 1e3);
      r.latency_ms = static_cast<double>(NowNs() - start) / 1e6;
      span.Close();
      const int64_t micros = transport ? ServerMicros(lines) : -1;
      r.ok = micros >= 0 && lines.size() >= 2 && ParsePackage(lines[0], &r.package);
      ++out_->attempted;
      if (!r.ok) ++out_->failed;
      if (queue_ms != nullptr && r.ok) {
        queue_ms->push_back(r.latency_ms - static_cast<double>(micros) / 1e3);
      }
      all_reads_.push_back(std::move(r));
    }
  }

  /// Offer reads open-loop at `rate` per second for `seconds` (and writes
  /// at the configured rate when `with_writes`). Returns every read.
  std::vector<ReadResult> Phase(double rate, double seconds, bool with_writes) {
    paql::Rng arrivals(DeriveSeed(config_.seed, 30 + phase_++));
    std::mutex mu;
    std::condition_variable cv;
    std::deque<Read> queue;
    bool done = false;
    std::vector<ReadResult> results;

    std::vector<std::thread> workers;
    for (int w = 0; w < kReaders; ++w) {
      workers.emplace_back([&, w] {
        Conn& conn = *readers_[w];
        std::vector<std::string> lines;
        while (true) {
          Read read;
          {
            std::unique_lock<std::mutex> lock(mu);
            cv.wait(lock, [&] { return done || !queue.empty(); });
            if (queue.empty()) return;
            read = queue.front();
            queue.pop_front();
          }
          const int64_t request = next_request_++;
          ScopedSpan span(tracer_, "service.request", request);
          ReadResult r;
          r.statement = read.statement;
          const int64_t sent = NowNs();
          bool transport = conn.Request("RUN " + pool_[read.statement], &lines);
          const int64_t end = NowNs();
          span.Close();
          r.lag_ms = static_cast<double>(sent - read.due_ns) / 1e6;
          r.latency_ms = static_cast<double>(end - read.due_ns) / 1e6;
          int64_t micros = transport ? ServerMicros(lines) : -1;
          r.ok = micros >= 0 && lines.size() >= 2 && ParsePackage(lines[0], &r.package);
          r.queue_ms = static_cast<double>(end - sent) / 1e6 -
                       static_cast<double>(micros) / 1e3;
          std::lock_guard<std::mutex> lock(mu);
          results.push_back(std::move(r));
        }
      });
    }

    std::atomic<bool> stop_writer{false};
    std::thread writer;
    if (with_writes) {
      writer = std::thread([&] {
        paql::Rng rng(DeriveSeed(config_.seed, 60 + phase_));
        int64_t next_due = NowNs();
        const int64_t period = static_cast<int64_t>(1e9 / sizes_.write_rate);
        while (!stop_writer.load()) {
          while (NowNs() < next_due && !stop_writer.load()) {
            std::this_thread::sleep_for(std::chrono::microseconds(500));
          }
          if (stop_writer.load() || !WriteBatch(rng, &write_ms_)) break;
          next_due += period;
        }
      });
    }

    // The open-loop generator: Poisson arrivals at `rate`.
    const int64_t start = NowNs();
    const int64_t end = start + static_cast<int64_t>(seconds * 1e9);
    int64_t due = start;
    while (true) {
      due += static_cast<int64_t>(arrivals.Exponential(rate) * 1e9);
      if (due >= end) break;
      std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
          std::chrono::nanoseconds(due)));
      size_t statement = static_cast<size_t>(
          arrivals.Zipf(static_cast<int64_t>(pool_.size()), kZipf) - 1);
      {
        std::lock_guard<std::mutex> lock(mu);
        queue.push_back({statement, due});
      }
      cv.notify_one();
    }
    {
      std::lock_guard<std::mutex> lock(mu);
      done = true;
    }
    cv.notify_all();
    for (auto& t : workers) t.join();
    stop_writer = true;
    if (writer.joinable()) writer.join();
    out_->attempted += static_cast<int64_t>(results.size());
    for (const auto& r : results) {
      if (!r.ok) ++out_->failed;
    }
    all_reads_.insert(all_reads_.end(), results.begin(), results.end());
    return results;
  }

  /// Step the offered read rate up by 2x per step until p99 exceeds the
  /// limit or the backlog grows; returns the last rate that held.
  double Ladder(double seconds) {
    double rate = sizes_.read_rate;
    double best = 0;
    const int steps = std::max(1, static_cast<int>(seconds / sizes_.ladder_step_s));
    for (int s = 0; s < steps; ++s) {
      const int64_t start = NowNs();
      std::vector<ReadResult> reads = Phase(rate, sizes_.ladder_step_s, false);
      const double wall = static_cast<double>(NowNs() - start) / 1e9;
      std::vector<double> ms;
      for (const auto& r : reads) {
        if (r.ok) ms.push_back(r.latency_ms);
      }
      // A backlog that grew shows as draining well past the step's end.
      const bool held = !ms.empty() && Percentile(ms, 99) <= kP99LimitMs &&
                        wall <= sizes_.ladder_step_s + 0.1 + kP99LimitMs / 1e3;
      out_->Note("  offered " + FormatNumber(rate) + "/s: read p50 " +
                 FormatNumber(Median(ms)) + " ms, p99 " +
                 FormatNumber(Percentile(ms, 99)) + " ms over " +
                 std::to_string(ms.size()) + " reads" + (held ? "" : " (missed)"));
      if (!held) {
        ladder_missed_ = true;
        break;
      }
      best = rate;
      rate *= 2;
    }
    return best;
  }

  /// Every successful read of the static table must match a serial
  /// single-session evaluation of the same statement: a package that
  /// satisfies the statement, with the serial run's objective (within the
  /// MIP gap both runs stop inside).
  void CheckStaticReads() {
    auto session = paql::Engine::Open(
        std::shared_ptr<const paql::relation::ColumnSource>(stars_), kStatic,
        EngineOptionsForServe());
    PB_CHECK(session.ok(), session.status().ToString());
    std::map<size_t, std::optional<std::pair<paql::translate::CompiledQuery, double>>>
        expected;
    size_t checked = 0;
    for (const auto& r : all_reads_) {
      if (!r.ok) continue;
      auto it = expected.find(r.statement);
      if (it == expected.end()) {
        const std::string& text = pool_[r.statement];
        auto serial = session->Execute(text);
        auto parsed = paql::lang::ParsePackageQuery(text);
        PB_CHECK(parsed.ok(), parsed.status().ToString());
        auto cq = paql::translate::CompiledQuery::Compile(*parsed, stars_->schema());
        PB_CHECK(cq.ok(), cq.status().ToString());
        std::optional<std::pair<paql::translate::CompiledQuery, double>> value;
        if (serial.ok()) {
          double objective = serial->objective;
          if (config_.corrupt_expected && expected.empty()) objective *= 1.1;
          value.emplace(std::move(*cq), objective);
        }
        it = expected.emplace(r.statement, std::move(value)).first;
      }
      ++checked;
      const std::string& text = pool_[r.statement];
      if (!it->second) {
        out_->checker.Expect(false, "served a package where the serial run "
                                    "found none: " + text);
        continue;
      }
      const auto& [cq, objective] = *it->second;
      out_->checker.Expect(
          cq.PackageSatisfiesGlobals(*stars_, r.package.rows, r.package.multiplicity),
          "served package violates the statement: " + text);
      double served = cq.ObjectiveValue(*stars_, r.package.rows, r.package.multiplicity);
      out_->checker.Expect(WithinGap(served, objective, kGap),
                           "served objective " + FormatNumber(served) +
                               " != serial " + FormatNumber(objective) + ": " + text);
    }
    out_->Note("checked " + std::to_string(checked) + " static-table reads against " +
               std::to_string(expected.size()) + " serial evaluations");
  }

  /// After the stream each standing query must agree with a fresh
  /// execution on the final table: same feasibility, a package that
  /// satisfies the statement on the final snapshot (no deleted rows), and
  /// an objective no better than the exact DIRECT optimum.
  void CheckStandingQueries(const std::vector<paql::StandingQuery>& live) {
    auto session = catalog_->OpenSession(EngineOptionsForServe());
    PB_CHECK(session.ok(), session.status().ToString());
    auto table = session->GetTable(kWatched);
    PB_CHECK(table.ok(), table.status().ToString());
    session->options().planner.force = paql::engine::Strategy::kDirect;
    for (const auto& sq : live) {
      auto fresh = session->Execute(sq.text);
      out_->checker.Expect(fresh.ok() == sq.valid,
                           "standing query feasibility differs from a fresh run: " +
                               sq.text);
      if (!fresh.ok() || !sq.valid) continue;
      auto parsed = paql::lang::ParsePackageQuery(sq.text);
      PB_CHECK(parsed.ok(), parsed.status().ToString());
      auto cq = paql::translate::CompiledQuery::Compile(*parsed, (*table)->schema());
      PB_CHECK(cq.ok(), cq.status().ToString());
      bool live_rows = true;
      for (RowId r : sq.package.rows) {
        live_rows = live_rows && r < (*table)->num_rows() && !(*table)->RowDeleted(r);
      }
      out_->checker.Expect(live_rows, "standing package holds deleted rows: " + sq.text);
      out_->checker.Expect(
          live_rows && cq->PackageSatisfiesGlobals(**table, sq.package.rows,
                                                   sq.package.multiplicity),
          "standing package violates its statement on the final table: " + sq.text);
      const double direct = fresh->objective;
      const bool beats = cq->maximize()
                             ? sq.objective > direct + kGap * std::fabs(direct) + 1e-9
                             : sq.objective < direct - kGap * std::fabs(direct) - 1e-9;
      out_->checker.Expect(!beats, "standing objective beats the DIRECT optimum: " +
                                       sq.text);
    }
  }

  /// Replaying the WAL into a fresh catalog must reproduce the final table
  /// cell for cell and every standing answer, so every acknowledged write
  /// is readable after recovery.
  void CheckRecovery(const std::vector<paql::StandingQuery>& live) {
    paql::service::Catalog catalog;
    PB_CHECK(catalog.AddTable(kStatic, stars_).ok(), "add static table");
    PB_CHECK(catalog.AddTable(kWatched, feed_).ok(), "add watched table");
    paql::service::StandingQueryRegistry registry(&catalog, EngineOptionsForServe());
    paql::relation::WalOptions wal;
    wal.dir = config_.workdir + "/serve/replay";
    std::filesystem::remove_all(wal.dir);
    std::filesystem::copy(wal_dir_, wal.dir);
    auto replayed = registry.Recover(wal);
    PB_CHECK(replayed.ok(), replayed.status().ToString());

    auto before = catalog_->OpenSession();
    auto after = catalog.OpenSession();
    auto want = before->GetTable(kWatched);
    auto got = after->GetTable(kWatched);
    PB_CHECK(want.ok() && got.ok(), "watched table lookup");
    const auto& a = **want;
    const auto& b = **got;
    bool same = a.num_rows() == b.num_rows();
    for (RowId r = 0; same && r < a.num_rows(); ++r) {
      same = a.RowDeleted(r) == b.RowDeleted(r);
      for (size_t c = 0; same && c < a.schema().num_columns(); ++c) {
        same = c == 0 ? a.GetInt64(r, c) == b.GetInt64(r, c)
                      : a.GetDouble(r, c) == b.GetDouble(r, c);
      }
    }
    out_->checker.Expect(same, "WAL replay did not reproduce the final table");
    out_->checker.Expect(a.num_rows() == feed_->num_rows() + InsertedRows(),
                         "final table is missing acknowledged inserts");
    auto recovered = registry.List();
    out_->checker.Expect(recovered.size() == live.size(),
                         "WAL replay lost standing queries");
    for (size_t i = 0; i < std::min(recovered.size(), live.size()); ++i) {
      auto p = live[i].package, q = recovered[i].package;
      p.Normalize();
      q.Normalize();
      out_->checker.Expect(
          recovered[i].id == live[i].id && recovered[i].valid == live[i].valid &&
              p.rows == q.rows && p.multiplicity == q.multiplicity,
          "WAL replay changed standing query " + std::to_string(live[i].id));
    }
    out_->Note("recovered " + std::to_string(replayed->records) +
               " WAL records; final table and " + std::to_string(live.size()) +
               " standing answers reproduced");
  }

  size_t InsertedRows() const {
    size_t n = 0;
    for (const auto& d : batches_) n += d.inserts.size();
    return n;
  }

  /// The traced layer replay of the acknowledged write stream through the
  /// update path's public functions, plus parse/compile/plan of reads.
  void Replay() {
    tracer_->set_enabled(true);
    paql::EngineOptions options = EngineOptionsForServe();
    auto session = paql::Engine::Open(
        std::shared_ptr<const paql::relation::ColumnSource>(stars_), kStatic, options);
    PB_CHECK(session.ok(), session.status().ToString());
    double parse_s = 0, compile_s = 0, plan_s = 0;
    const size_t n = std::min<size_t>(pool_.size(), 32);
    for (size_t i = 0; i < n; ++i) {
      ScopedSpan parse_span(tracer_, "paql.parse", i);
      auto parsed = paql::lang::ParsePackageQuery(pool_[i]);
      parse_s += parse_span.Close();
      PB_CHECK(parsed.ok(), parsed.status().ToString());
      ScopedSpan compile_span(tracer_, "translate.compile", i);
      auto cq = paql::translate::CompiledQuery::Compile(*parsed, stars_->schema());
      compile_s += compile_span.Close();
      ScopedSpan plan_span(tracer_, "engine.plan", i);
      auto plan = session->PlanQuery(pool_[i]);
      plan_s += plan_span.Close();
      PB_CHECK(plan.ok(), plan.status().ToString());
    }
    const double reads = static_cast<double>(std::max<size_t>(1, n));
    out_->Layer("paql.parse_us", parse_s / reads * 1e6, "us");
    out_->Layer("translate.compile_us", compile_s / reads * 1e6, "us");
    out_->Layer("engine.plan_us", plan_s / reads * 1e6, "us");

    // The write path, layer by layer.
    auto version = paql::relation::TableVersion::Wrap(feed_);
    PB_CHECK(version.ok(), version.status().ToString());
    std::shared_ptr<const paql::relation::TableVersion> current = *version;
    paql::engine::Planner planner(options.planner);
    paql::partition::PartitionOptions popts;
    popts.attributes = planner.PartitionAttributes(*feed_);
    popts.size_threshold = planner.PartitionSizeThreshold(*feed_);
    popts.threads = options.exec.EffectiveThreads();
    ScopedSpan part_span(tracer_, "partition.build");
    auto partitioning = paql::partition::PartitionTable(*current, popts);
    out_->Layer("partition.build_s", part_span.Close(), "s");
    PB_CHECK(partitioning.ok(), partitioning.status().ToString());
    out_->Layer("partition.groups", static_cast<double>(partitioning->num_groups()),
                "count");
    paql::core::IncrementalOptions inc;
    static_cast<paql::engine::ExecContext&>(inc.sketch_refine) = options.exec;
    std::vector<paql::translate::CompiledQuery> standing;
    std::vector<paql::core::Package> packages;
    for (const auto& text : standing_texts_) {
      auto parsed = paql::lang::ParsePackageQuery(text);
      PB_CHECK(parsed.ok(), parsed.status().ToString());
      auto cq = paql::translate::CompiledQuery::Compile(*parsed, feed_->schema());
      PB_CHECK(cq.ok(), cq.status().ToString());
      paql::core::SketchRefineEvaluator sr(*current, *partitioning, inc.sketch_refine);
      auto r = sr.Evaluate(*cq);
      packages.push_back(r.ok() ? r->package : paql::core::Package());
      standing.push_back(std::move(*cq));
    }
    paql::relation::WalOptions wal_options;
    wal_options.dir = config_.workdir + "/serve/replay-wal";
    std::filesystem::remove_all(wal_options.dir);
    auto wal = paql::relation::WalWriter::Open(wal_options);
    PB_CHECK(wal.ok(), wal.status().ToString());
    double absorb_s = 0, repair_s = 0, append_s = 0, dirty_share = 0;
    size_t repairs = 0;
    for (const auto& delta : batches_) {
      paql::relation::WalRecord record;
      record.table = kWatched;
      record.base_version = current->version();
      record.delta = delta;
      ScopedSpan append_span(tracer_, "relation.wal_append");
      PB_CHECK((*wal)->Append(record).ok(), "wal append");
      append_s += append_span.Close();
      auto next = current->Apply(delta);
      PB_CHECK(next.ok(), next.status().ToString());
      current = *next;
      ScopedSpan absorb_span(tracer_, "partition.absorb");
      auto absorbed = paql::partition::AbsorbBatch(*current, *partitioning, delta.deletes);
      absorb_s += absorb_span.Close();
      PB_CHECK(absorbed.ok(), absorbed.status().ToString());
      *partitioning = std::move(absorbed->partitioning);
      dirty_share += static_cast<double>(absorbed->dirty_groups.size()) /
                     static_cast<double>(std::max<size_t>(1, partitioning->num_groups()));
      for (size_t q = 0; q < standing.size(); ++q) {
        ScopedSpan repair_span(tracer_, "core.repair");
        auto repaired = paql::core::ReEvaluatePackage(
            *current, *partitioning, standing[q], packages[q], absorbed->dirty_groups, inc);
        repair_s += repair_span.Close();
        ++repairs;
        if (repaired.ok()) packages[q] = repaired->result.package;
      }
    }
    const double b = static_cast<double>(std::max<size_t>(1, batches_.size()));
    out_->Layer("relation.wal_append_us", append_s / b * 1e6, "us");
    out_->Layer("partition.absorb_us", absorb_s / b * 1e6, "us");
    out_->Layer("partition.dirty_group_share", dirty_share / b, "share");
    out_->Layer("core.repair_us",
                repair_s / static_cast<double>(std::max<size_t>(1, repairs)) * 1e6, "us");
    tracer_->set_enabled(false);
  }

  static size_t DirBytes(const std::string& dir) {
    size_t total = 0;
    for (const auto& entry : std::filesystem::directory_iterator(dir)) {
      if (entry.is_regular_file()) total += entry.file_size();
    }
    return total;
  }

  const RunConfig& config_;
  Tracer* tracer_;
  Outcome* out_;
  Sizes sizes_;
  std::shared_ptr<const Table> stars_, feed_, extra_;
  std::vector<std::string> pool_, watched_texts_, standing_texts_;
  std::unique_ptr<paql::service::Catalog> catalog_;
  std::unique_ptr<paql::service::Server> server_;
  std::vector<std::unique_ptr<Conn>> readers_;
  std::unique_ptr<Conn> writer_;
  std::string wal_dir_;
  std::vector<RowId> live_rows_;
  RowId next_row_id_ = 0;
  size_t next_extra_ = 0;
  std::vector<paql::relation::TableDelta> batches_;
  std::vector<double> write_ms_, watched_read_ms_;
  size_t user_write_bytes_ = 0;
  std::vector<ReadResult> all_reads_;
  std::atomic<int64_t> next_request_{0};
  int phase_ = 0;
  bool ladder_missed_ = false;
};

}  // namespace

void RunServeMixed(const RunConfig& config, Tracer* tracer, Outcome* out) {
  ServeMixed(config, tracer, out).Run();
}

}  // namespace perfbench
