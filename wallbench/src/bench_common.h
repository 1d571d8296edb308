// Shared plumbing of the wall-clock benchmark: clocks, order statistics,
// the in-memory span tracer, metric lists and readers of the library's
// obs registry. Everything here is the benchmark's own; the library is
// reached through its public headers only.
#ifndef WALLBENCH_BENCH_COMMON_H_
#define WALLBENCH_BENCH_COMMON_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/metrics.h"

namespace wallbench {

/// Command-line arguments of one benchmark run.
struct RunArgs {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir;  ///< working directory inside the checkout
  std::string self_exe;  ///< path of this binary (oocore job children)
};

/// steady_clock nanoseconds; every timing in the benchmark uses it.
uint64_t NowNs();
inline double ToSeconds(uint64_t ns) { return static_cast<double>(ns) / 1e9; }
inline double ToMs(uint64_t ns) { return static_cast<double>(ns) / 1e6; }

/// Quantile with linear interpolation between closest ranks; 0 when empty.
double Quantile(std::vector<double> values, double q);
inline double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}
double Mean(const std::vector<double>& values);

/// Peak resident set of this process, in MiB.
double PeakRssMb();

/// Share of host CPU time stolen by the hypervisor since `*since_total`
/// and `*since_steal` (jiffies from /proc/stat), which it then advances.
/// Printed with every run: a run with much steal is a disturbed run.
double StealShareSince(uint64_t* since_total, uint64_t* since_steal);

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Outcome of one workload run (untraced) or one traced face.
struct WorkloadResult {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> errors;
  /// Contract metrics of the untraced run (BENCHMARK.json end_to_end).
  std::vector<Metric> end_to_end;
  /// The workload's own named figures, printed as report lines.
  std::vector<Metric> report;
  /// Traced run only (BENCHMARK.json per_layer).
  std::vector<Metric> per_layer;

  void Add(std::vector<Metric>* list, std::string name, double value,
           std::string unit) {
    list->push_back(Metric{std::move(name), value, std::move(unit)});
  }
  /// Counts one failed operation with its reason.
  void Fail(std::string reason) {
    ++failed;
    errors.push_back(std::move(reason));
  }
};

/// In-memory span recorder driven from a single thread. Spans nest through
/// a stack; `key` carries the request or trial id. Recording is skipped
/// entirely when disabled, so the untraced run pays one branch per call.
class Tracer {
 public:
  struct Span {
    uint64_t id = 0;
    uint64_t parent = 0;
    std::string name;
    uint64_t key = 0;
    uint64_t start_ns = 0;
    uint64_t end_ns = 0;
  };
  struct Aggregate {
    uint64_t count = 0;
    uint64_t total_ns = 0;
    uint64_t self_ns = 0;
  };

  explicit Tracer(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }
  uint64_t Begin(const char* name, uint64_t key);
  void End(uint64_t id);

  /// Total and self time per span name; self time is the span's duration
  /// minus the time its direct children cover.
  std::map<std::string, Aggregate> AggregateByName() const;
  /// Writes one JSON object per span to `path`.
  bool WriteJsonl(const std::string& path) const;

 private:
  bool enabled_;
  std::vector<Span> spans_;
  std::vector<size_t> open_;  // indices into spans_
};

class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, uint64_t key = 0)
      : tracer_(tracer), id_(tracer->Begin(name, key)) {}
  ~ScopedSpan() { tracer_->End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  uint64_t id_;
};

/// A snapshot of the global obs registry, read by counter and histogram name.
struct ObsReading {
  greater::MetricsSnapshot snapshot;

  static ObsReading Take();
  uint64_t Counter(const std::string& name) const;
  /// Mean of a histogram's observations; 0 when it has none.
  double HistogramMean(const std::string& name) const;
};

/// Ratio with a zero denominator mapped to 0.
inline double SafeRatio(double num, double den) {
  return den > 0.0 ? num / den : 0.0;
}

}  // namespace wallbench

#endif  // WALLBENCH_BENCH_COMMON_H_
