// perfbench: the repository benchmark binary.
//
//   perfbench --workload <paper_galaxy|oocore_scan|serve_mixed>
//             --seed <n> --seconds <s> --trace <0|1> --workdir <dir>
//             [--tiny] [--corrupt-expected]
//
// Prints the workload's figures under their own names, then one JSON
// object as the last line of standard output:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// With --trace 0 the metrics are the end-to-end metrics; with --trace 1
// they are the per-layer metrics of the traced run. Any answer mismatch
// makes the run fail: "correct" is false, no metrics are reported, and the
// exit code is 1.
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "common/simd.h"
#include "report.h"
#include "workloads.h"

namespace perfbench {
namespace {

/// The aggregate "cpu" line of /proc/stat (user, nice, system, idle,
/// iowait, irq, softirq, steal, ...); empty where unavailable.
std::vector<int64_t> CpuTicks() {
  std::ifstream stat("/proc/stat");
  std::string label;
  std::vector<int64_t> ticks;
  if (!(stat >> label) || label != "cpu") return ticks;
  int64_t v = 0;
  while (ticks.size() < 8 && stat >> v) ticks.push_back(v);
  return ticks;
}

int Usage(const char* msg) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "<paper_galaxy|oocore_scan|serve_mixed> --seed <n> --seconds "
               "<s> --trace <0|1> --workdir <dir> [--tiny] "
               "[--corrupt-expected]\n",
               msg);
  return 2;
}

std::string JsonNumber(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

void PrintMetric(const std::string& name, const Metric& m) {
  std::cout << "  " << name << " = " << FormatNumber(m.value) << " "
            << m.unit << "\n";
}

int Main(int argc, char** argv) {
  RunConfig config;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto value = [&]() -> std::string {
      return i + 1 < argc ? argv[++i] : std::string();
    };
    if (arg == "--workload") {
      config.workload = value();
    } else if (arg == "--seed") {
      config.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      config.seconds = std::atof(value().c_str());
    } else if (arg == "--trace") {
      config.trace = value() == "1";
    } else if (arg == "--workdir") {
      config.workdir = value();
    } else if (arg == "--tiny") {
      config.tiny = true;
    } else if (arg == "--corrupt-expected") {
      config.corrupt_expected = true;
    } else {
      return Usage(("unknown argument " + arg).c_str());
    }
  }
  if (config.workdir.empty()) return Usage("--workdir is required");
  if (config.seconds <= 0) return Usage("--seconds must be positive");
  std::filesystem::create_directories(config.workdir);

  const std::vector<int64_t> cpu_before = CpuTicks();
  Tracer tracer(false);
  Outcome out;
  if (config.workload == "paper_galaxy") {
    RunPaperGalaxy(config, &tracer, &out);
  } else if (config.workload == "oocore_scan") {
    RunOocoreScan(config, &tracer, &out);
  } else if (config.workload == "serve_mixed") {
    RunServeMixed(config, &tracer, &out);
  } else {
    return Usage(("unknown workload '" + config.workload + "'").c_str());
  }
  const std::vector<int64_t> cpu_after = CpuTicks();
  if (cpu_before.size() > 7 && cpu_after.size() > 7) {
    int64_t total = 0;
    for (size_t i = 0; i < cpu_after.size(); ++i) {
      total += cpu_after[i] - cpu_before[i];
    }
    // Time the hypervisor ran other guests on this machine's CPUs: what
    // moves wall-clock figures from run to run on shared virtual machines.
    const double steal =
        total > 0 ? static_cast<double>(cpu_after[7] - cpu_before[7]) /
                        static_cast<double>(total)
                  : 0;
    out.Note("host steal share over the run = " + FormatNumber(steal));
    out.Layer("bench.host_steal_share", steal, "share");
  }
  out.E2e("answered_share",
          out.attempted > 0
              ? 1.0 - static_cast<double>(out.failed + out.unanswered) /
                          static_cast<double>(out.attempted)
              : 0,
          "share");
  out.Layer("e2e.failure_share",
            out.attempted > 0 ? static_cast<double>(out.failed) /
                                    static_cast<double>(out.attempted)
                              : 0,
            "share");
  const double peak_rss_mb = PeakRssMb();
  out.Note("peak_rss_mb = " + FormatNumber(peak_rss_mb) + " MB");
  out.Layer("e2e.peak_rss_mb", peak_rss_mb, "MB");

  std::cout << "workload " << config.workload << " seed " << config.seed
            << " seconds " << config.seconds << " trace " << config.trace
            << " (host: " << std::thread::hardware_concurrency()
            << " hardware threads, simd "
            << paql::simd::LevelName(paql::simd::ActiveLevel()) << ")\n";
  for (const auto& line : out.notes) std::cout << "  " << line << "\n";
  std::cout << "  failure share = " << out.failed << "/" << out.attempted
            << " operations\n";
  std::cout << "  unanswered (budget exhausted or infeasible) = "
            << out.unanswered << "/" << out.attempted << " operations\n";
  std::cout << "  answer checks = " << out.checker.checks() << "\n";
  std::cout << "end-to-end metrics:\n";
  for (const auto& [name, unit] : EndToEndMetrics()) {
    auto it = out.end_to_end.find(name);
    PB_CHECK(it != out.end_to_end.end(), "workload did not report " + name);
    PrintMetric(name, it->second);
  }
  if (config.trace) {
    AddSelfTimes(tracer, &out);
    std::string path = config.workdir + "/spans-" + config.workload + ".jsonl";
    PB_CHECK(tracer.WriteJsonLines(path), "cannot write " + path);
    std::cout << "per-layer metrics (traced run; " << tracer.size()
              << " spans written to " << path << "):\n";
    for (const auto& [name, unit] : PerLayerMetrics()) {
      if (!out.per_layer.count(name)) out.Layer(name, 0, unit);
      PrintMetric(name, out.per_layer[name]);
    }
  }

  const bool correct = out.checker.ok() && out.attempted > 0;
  for (const auto& m : out.checker.mismatches()) {
    std::cerr << "MISMATCH: " << m << "\n";
  }
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << out.attempted
            << ", \"failed\": " << out.failed << ", \"metrics\": {";
  if (correct) {
    const auto& names = config.trace ? PerLayerMetrics() : EndToEndMetrics();
    const auto& values = config.trace ? out.per_layer : out.end_to_end;
    for (size_t i = 0; i < names.size(); ++i) {
      const Metric& m = values.at(names[i].first);
      std::cout << (i ? ", " : "") << "\"" << names[i].first
                << "\": {\"value\": " << JsonNumber(m.value)
                << ", \"unit\": \"" << m.unit << "\"}";
    }
  }
  std::cout << "}}" << std::endl;
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
