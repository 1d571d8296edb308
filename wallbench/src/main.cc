// Wall-clock benchmark binary.
//
//   wallbench --workload <serve-zipf|oocore-csv|pipeline-digix> --seed N
//             --seconds S --trace <0|1> --work-dir DIR --trace-dir DIR
//             [--commit SHA]
//
// Prints a run header, the workload's named figures as report lines, and as
// its last line one JSON object {correct, attempted, failed, metrics}. The
// untraced run (--trace 0) reports the end-to-end metrics of the named
// workload. The traced run (--trace 1) traces all three workloads, named
// one first, so that every per-layer metric is measured, and writes the
// spans of each to DIR/<workload>.spans.jsonl.

#include <unistd.h>

#include <climits>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "bench_common.h"
#include "workloads.h"

namespace wallbench {
namespace {

struct Workload {
  const char* name;
  WorkloadResult (*run)(const RunArgs&, Tracer*);
  /// Threads that can be busy at once: the library's workers plus the
  /// benchmark's own. Each must fit in nproc for a valid run.
  int busy_threads;
  const char* threads;
};

const Workload kWorkloads[] = {
    // 2 server workers + admitter + the one generator thread; the
    // collector sleeps in Wait and the watchdog in its poll.
    {"serve-zipf", RunServeZipf, 4,
     "server_workers=2 admitter=1 generator=1 collector=1(idle)"},
    // Job child: reader + 1 parse worker + 2 fit shards; the parent waits.
    {"oocore-csv", RunOocoreCsv, 4,
     "fit_shards=2 parse_workers=1 reader=1 parent=1(idle)"},
    // One thread: per-row decode, num_threads left at 1.
    {"pipeline-digix", RunPipelineDigix, 1, "pipeline_threads=1"},
};

const Workload* FindWorkload(const std::string& name) {
  for (const Workload& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

void PrintNumber(double v) { std::printf("%.17g", v); }

void PrintMetrics(const std::vector<Metric>& metrics, const char* prefix) {
  for (const Metric& m : metrics) {
    std::printf("%s %-48s %.6g %s\n", prefix, m.name.c_str(), m.value,
                m.unit.c_str());
  }
}

void PrintSelfTimes(const char* workload, const Tracer& tracer) {
  for (const auto& [name, agg] : tracer.AggregateByName()) {
    std::printf("trace %-15s %-28s count=%-8llu total_ms=%-12.3f self_ms=%.3f\n",
                workload, name.c_str(), static_cast<unsigned long long>(agg.count),
                ToMs(agg.total_ns), ToMs(agg.self_ns));
  }
}

/// The contract's last line. Non-finite values cannot be printed as JSON
/// numbers; they fail the run instead.
int PrintResult(const WorkloadResult& result,
                const std::vector<Metric>& metrics) {
  bool finite = true;
  for (const Metric& m : metrics) finite = finite && std::isfinite(m.value);
  const bool correct = result.failed == 0 && finite && result.attempted > 0;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(std::max<uint64_t>(result.attempted, 1)),
              static_cast<unsigned long long>(result.failed + (finite ? 0 : 1)));
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": ", i == 0 ? "" : ", ",
                metrics[i].name.c_str());
    PrintNumber(std::isfinite(metrics[i].value) ? metrics[i].value : 0.0);
    std::printf(", \"unit\": \"%s\"}", metrics[i].unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
  return correct ? 0 : 1;
}

int Usage() {
  std::fprintf(stderr,
               "usage: wallbench --workload <serve-zipf|oocore-csv|"
               "pipeline-digix> --seed N --seconds S --trace <0|1> "
               "--work-dir DIR --trace-dir DIR [--commit SHA]\n");
  return 2;
}

int Main(int argc, char** argv) {
  if (argc == 5 && std::strcmp(argv[1], "--oocore-job") == 0) {
    return OocoreJobMain(argv[2], argv[3], argv[4]);
  }
  RunArgs args;
  std::string trace_dir, commit = "unknown";
  bool have_workload = false, have_seed = false, have_seconds = false;
  bool have_trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      args.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value, nullptr, 10);
      have_seed = true;
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value, nullptr);
      have_seconds = args.seconds > 0.0;
    } else if (flag == "--trace") {
      args.trace = std::strcmp(value, "1") == 0;
      have_trace = args.trace || std::strcmp(value, "0") == 0;
    } else if (flag == "--work-dir") {
      args.work_dir = value;
    } else if (flag == "--trace-dir") {
      trace_dir = value;
    } else if (flag == "--commit") {
      commit = value;
    } else {
      return Usage();
    }
  }
  const Workload* workload = FindWorkload(args.workload);
  if (argc % 2 != 1 || !have_workload || !have_seed || !have_seconds ||
      !have_trace || args.work_dir.empty() || trace_dir.empty() ||
      workload == nullptr) {
    return Usage();
  }
  char exe[PATH_MAX] = {0};
  const ssize_t n = readlink("/proc/self/exe", exe, sizeof(exe) - 1);
  if (n <= 0) return Usage();
  args.self_exe.assign(exe, static_cast<size_t>(n));

  const long nproc = sysconf(_SC_NPROCESSORS_ONLN);
  const std::string build_type = WALLBENCH_BUILD_TYPE;
  std::printf("header nproc=%ld compiler=\"%s\" build_type=%s commit=%s "
              "seed=%llu seconds=%g trace=%d workload=%s threads=\"%s\"\n",
              nproc, WALLBENCH_COMPILER, build_type.c_str(), commit.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0, workload->name, workload->threads);
  if (build_type != "Release") {
    std::fprintf(stderr, "invalid run: build type %s is not Release\n",
                 build_type.c_str());
    return 3;
  }
  for (const Workload& w : kWorkloads) {
    if (w.busy_threads > nproc) {
      std::fprintf(stderr, "invalid run: %s needs %d busy threads, nproc=%ld\n",
                   w.name, w.busy_threads, nproc);
      return 3;
    }
  }
  std::filesystem::create_directories(args.work_dir);

  uint64_t cpu_total = 0, cpu_steal = 0;
  StealShareSince(&cpu_total, &cpu_steal);
  if (!args.trace) {
    Tracer off(false);
    WorkloadResult result = workload->run(args, &off);
    result.Add(&result.report, "host.steal_share",
               StealShareSince(&cpu_total, &cpu_steal), "share");
    PrintMetrics(result.report, "report");
    PrintMetrics(result.end_to_end, "metric");
    for (const std::string& e : result.errors) std::printf("error %s\n", e.c_str());
    return PrintResult(result, result.end_to_end);
  }

  // Traced run: the named workload first, then the other two.
  std::filesystem::create_directories(trace_dir);
  std::vector<const Workload*> order = {workload};
  for (const Workload& w : kWorkloads) {
    if (&w != workload) order.push_back(&w);
  }
  WorkloadResult total;
  for (const Workload* w : order) {
    Tracer tracer(true);
    WorkloadResult result = w->run(args, &tracer);
    result.Add(&result.report, "host.steal_share",
               StealShareSince(&cpu_total, &cpu_steal), "share");
    tracer.WriteJsonl(trace_dir + "/" + w->name + ".spans.jsonl");
    PrintSelfTimes(w->name, tracer);
    PrintMetrics(result.report, "report");
    for (const std::string& e : result.errors) std::printf("error %s\n", e.c_str());
    total.attempted += result.attempted;
    total.failed += result.failed;
    for (Metric& m : result.per_layer) total.per_layer.push_back(std::move(m));
  }
  PrintMetrics(total.per_layer, "layer");
  return PrintResult(total, total.per_layer);
}

}  // namespace
}  // namespace wallbench

int main(int argc, char** argv) { return wallbench::Main(argc, argv); }
