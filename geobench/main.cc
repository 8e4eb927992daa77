// End-to-end benchmark of the simulated GlobalDB cluster.
//
//   geobench --workload <geo-rw|geo-ro|local-rw> --seed <n> --seconds <s>
//            --trace <0|1>
//   geobench --selftest
//
// Builds the cluster, loads the seed's data set, runs the workload's closed
// loop for a simulated window sized from --seconds, drains, audits the
// results and prints one JSON object as the last line of stdout: the
// end-to-end metrics with --trace 0, the per-layer metrics with --trace 1
// (which also writes the client spans to .bench_out/<workload>.spans.csv).

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>

#include "bench.h"

namespace geobench {
namespace {

using Clock = std::chrono::steady_clock;

/// Where traced runs write their spans, relative to the working directory.
constexpr char kTraceDir[] = ".bench_out";

struct Args {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  bool selftest = false;
};

int Usage(const char* why) {
  fprintf(stderr, "geobench: %s\nusage: geobench --workload <", why);
  const std::vector<std::string> names = WorkloadNames();
  for (size_t i = 0; i < names.size(); ++i) {
    fprintf(stderr, "%s%s", i ? "|" : "", names[i].c_str());
  }
  fprintf(stderr,
          "> --seed <n> --seconds <s> --trace <0|1>\n"
          "       geobench --selftest\n");
  return 2;
}

bool ParseArgs(int argc, char** argv, Args* args, std::string* why) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--selftest") {
      args->selftest = true;
      continue;
    }
    if (i + 1 >= argc) {
      *why = "missing value for " + flag;
      return false;
    }
    const char* value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = strtoull(value, &end, 10);
    } else if (flag == "--seconds") {
      args->seconds = static_cast<int>(strtol(value, &end, 10));
    } else if (flag == "--trace") {
      args->trace = strtol(value, &end, 10) != 0;
    } else {
      *why = "unknown flag " + flag;
      return false;
    }
    if (end != nullptr && (*end != '\0' || end == value)) {
      *why = "bad value for " + flag + ": " + value;
      return false;
    }
  }
  if (!args->selftest && args->workload.empty()) {
    *why = "--workload is required";
    return false;
  }
  if (args->seconds < 1 || args->seconds > 600) {
    *why = "--seconds must be within 1..600";
    return false;
  }
  return true;
}

/// Peak resident set size of this process (VmHWM), in MB.
double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return static_cast<double>(strtoll(line.c_str() + 6, nullptr, 10)) /
             1024.0;
    }
  }
  return 0;
}

double Seconds(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}

bool WriteSpans(const std::string& path, const std::vector<Span>& spans) {
  FILE* f = fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  fprintf(f, "span,parent,txn,name,start_ns,end_ns\n");
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    fprintf(f, "%zu,%" PRId64 ",%" PRIu64 ",%s,%" PRId64 ",%" PRId64 "\n", i,
            s.parent, s.txn, SpanNameString(s.name), s.start, s.end);
  }
  return fclose(f) == 0;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void PrintResult(bool correct, int64_t attempted, int64_t failed,
                 const std::vector<Metric>& metrics) {
  printf("{\"correct\": %s, \"attempted\": %" PRId64 ", \"failed\": %" PRId64
         ", \"metrics\": {",
         correct ? "true" : "false", attempted, failed);
  for (size_t i = 0; i < metrics.size(); ++i) {
    printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i ? ", " : "",
           metrics[i].name.c_str(), metrics[i].value, metrics[i].unit.c_str());
  }
  printf("}}\n");
}

struct WindowTiming {
  double wall_s = 0;          // wall-clock time spent simulating the window
  double corrected_rate = 0;  // median slice rate, corrected for speed
};

/// Runs the measured window in slices, with a pass of the reference loop
/// before the first slice and after each one. A slice's successful
/// transactions per wall-clock second are scaled by the mean of the two
/// reference passes around it over the nominal reference time, and the
/// median slice is the run's simulator speed.
WindowTiming RunWindow(globaldb::sim::Simulator* simulator, RunState* state,
                       SimDuration window) {
  constexpr int kSlices = 40;
  WindowTiming timing;
  std::vector<double> rates;
  double reference_before = ReferenceLoopSeconds();
  for (int i = 1; i <= kSlices; ++i) {
    const size_t before = state->latency.count();
    const Clock::time_point start = Clock::now();
    simulator->RunUntil(state->measure_start + window * i / kSlices);
    const double slice_s = Seconds(Clock::now() - start);
    const double reference_after = ReferenceLoopSeconds();
    timing.wall_s += slice_s;
    rates.push_back(static_cast<double>(state->latency.count() - before) /
                    slice_s * (reference_before + reference_after) / 2 /
                    kNominalReferenceSeconds);
    reference_before = reference_after;
  }
  std::sort(rates.begin(), rates.end());
  timing.corrected_rate = (rates[kSlices / 2 - 1] + rates[kSlices / 2]) / 2;
  return timing;
}

int Run(const Args& args, Clock::time_point process_start) {
  const WorkloadSpec* spec = FindWorkload(args.workload);
  if (spec == nullptr) {
    return Usage(("unknown workload " + args.workload).c_str());
  }
  const SimDuration window = std::max<SimDuration>(
      spec->min_window,
      static_cast<SimDuration>(args.seconds * spec->sim_seconds_per_second *
                               globaldb::kSecond));

  // --- Set-up: cluster, bulk load, first RCP ---------------------------------
  globaldb::sim::Simulator simulator(args.seed * 0x9e3779b97f4a7c15ULL + 1);
  Cluster cluster(&simulator, MakeClusterOptions(*spec));
  cluster.Start();
  DataSet data;
  data.seed = args.seed;
  const Status loaded = LoadDataSet(&cluster, data);
  if (!loaded.ok()) {
    fprintf(stderr, "geobench: load failed: %s\n", loaded.ToString().c_str());
    return 1;
  }
  cluster.WaitForRcp();
  simulator.RunFor(300 * globaldb::kMillisecond);
  const double setup_s = Seconds(Clock::now() - process_start);

  // --- Closed loop: warm-up, then the measured window -------------------------
  RunState state;
  state.cluster = &cluster;
  state.data = &data;
  state.mix = spec->mix;
  state.trace = args.trace;
  state.measure_start = simulator.now() + spec->warmup;
  state.measure_end = state.measure_start + window;
  StartTerminals(&state, spec->terminals, args.seed);
  simulator.RunUntil(state.measure_start);
  LayerProbe probe;
  if (args.trace) probe.Start(&cluster);
  const WindowTiming timing = RunWindow(&simulator, &state, window);
  const double window_s =
      static_cast<double>(window) / static_cast<double>(globaldb::kSecond);
  const int64_t done = static_cast<int64_t>(state.latency.count());
  std::map<std::string, double> layers;
  if (args.trace) layers = probe.Finish(&cluster, state, done, window_s);

  // --- Drain and audit ----------------------------------------------------------
  const AuditResult audit = RunAudits(&state);
  const double peak_rss_mb = PeakRssMb();

  const double p50_ms = static_cast<double>(state.latency.Percentile(50)) / 1e6;
  const double p99_ms = static_cast<double>(state.latency.Percentile(99)) / 1e6;
  const double tps = static_cast<double>(done) / window_s;
  printf("workload=%s seed=%" PRIu64 " terminals=%d window=[%.3f, %.3f) "
         "simulated s (%.2f wall s, %.1f txn per wall s before speed "
         "correction) setup=%.3f s\n",
         spec->name, args.seed, spec->terminals,
         static_cast<double>(state.measure_start) / globaldb::kSecond,
         static_cast<double>(state.measure_end) / globaldb::kSecond,
         timing.wall_s, static_cast<double>(done) / timing.wall_s, setup_s);
  printf("attempted=%" PRId64 " failed=%" PRId64 " samples=%" PRId64
         " p50_ms=%.3f p99_ms=%.3f tps=%.1f sim_txn_per_wall_s=%.1f "
         "peak_rss_mb=%.1f\n",
         state.attempted, state.failed, done, p50_ms, p99_ms, tps,
         timing.corrected_rate, peak_rss_mb);
  for (const auto& [reason, count] : state.failure_reasons) {
    printf("failure x%" PRId64 ": %s\n", count, reason.c_str());
  }
  for (const std::string& line : audit.lines) printf("audit: %s\n", line.c_str());
  const bool correct = audit.ok && done > 0;

  std::vector<Metric> metrics;
  if (args.trace) {
    std::filesystem::create_directories(kTraceDir);
    const std::string path =
        std::string(kTraceDir) + "/" + spec->name + ".spans.csv";
    if (!WriteSpans(path, state.spans)) {
      fprintf(stderr, "geobench: cannot write %s\n", path.c_str());
      return 1;
    }
    printf("trace: %zu spans written to %s\n", state.spans.size(),
           path.c_str());
    for (const MetricInfo& info : LayerMetricInfo()) {
      metrics.push_back({info.name, layers.at(info.name), info.unit});
    }
  } else {
    metrics = {{"setup_s", setup_s, "s"},
               {"p50_ms", p50_ms, "ms"},
               {"p99_ms", p99_ms, "ms"},
               {"tps", tps, "1/s"},
               {"sim_txn_per_wall_s", timing.corrected_rate, "1/s"},
               {"peak_rss_mb", peak_rss_mb, "MB"}};
  }
  PrintResult(correct, state.attempted, state.failed, metrics);
  return 0;
}

}  // namespace

const char* SpanNameString(int32_t name) {
  static const char* const kNames[kSpanCount] = {
      "txn.read_write", "txn.point_select", "txn.range_select",
      "cluster.begin",  "cluster.multiget", "cluster.get_for_update",
      "cluster.update", "cluster.scan_batch", "cluster.commit",
      "cluster.abort",
  };
  return name >= 0 && name < kSpanCount ? kNames[name] : "unknown";
}

}  // namespace geobench

int main(int argc, char** argv) {
  const auto process_start = geobench::Clock::now();
  geobench::Args args;
  std::string why;
  if (!geobench::ParseArgs(argc, argv, &args, &why)) {
    return geobench::Usage(why.c_str());
  }
  if (args.selftest) return geobench::SelfTest();
  return geobench::Run(args, process_start);
}
