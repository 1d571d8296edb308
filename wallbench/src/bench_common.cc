#include "bench_common.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>

namespace wallbench {

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  if (std::isinf(values[hi])) return frac > 0.0 ? values[hi] : values[lo];
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double StealShareSince(uint64_t* since_total, uint64_t* since_steal) {
  std::ifstream in("/proc/stat");
  std::string cpu;
  uint64_t field = 0, total = 0, steal = 0;
  in >> cpu;
  for (int i = 0; i < 8 && in >> field; ++i) {
    total += field;
    if (i == 7) steal = field;  // user nice system idle iowait irq softirq steal
  }
  const double share = SafeRatio(static_cast<double>(steal - *since_steal),
                                 static_cast<double>(total - *since_total));
  *since_total = total;
  *since_steal = steal;
  return share;
}

uint64_t Tracer::Begin(const char* name, uint64_t key) {
  if (!enabled_) return 0;
  Span span;
  span.id = spans_.size() + 1;
  span.parent = open_.empty() ? 0 : spans_[open_.back()].id;
  span.name = name;
  span.key = key;
  span.start_ns = NowNs();
  open_.push_back(spans_.size());
  spans_.push_back(std::move(span));
  return spans_.back().id;
}

void Tracer::End(uint64_t id) {
  if (!enabled_ || id == 0) return;
  spans_[id - 1].end_ns = NowNs();
  if (!open_.empty() && open_.back() == id - 1) open_.pop_back();
}

std::map<std::string, Tracer::Aggregate> Tracer::AggregateByName() const {
  std::vector<uint64_t> child_ns(spans_.size(), 0);
  for (const Span& span : spans_) {
    if (span.parent != 0) child_ns[span.parent - 1] += span.end_ns - span.start_ns;
  }
  std::map<std::string, Aggregate> out;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const uint64_t duration = spans_[i].end_ns - spans_[i].start_ns;
    Aggregate& agg = out[spans_[i].name];
    agg.count += 1;
    agg.total_ns += duration;
    agg.self_ns += duration > child_ns[i] ? duration - child_ns[i] : 0;
  }
  return out;
}

bool Tracer::WriteJsonl(const std::string& path) const {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  for (const Span& span : spans_) {
    out << "{\"id\":" << span.id << ",\"parent\":" << span.parent
        << ",\"name\":\"" << span.name << "\",\"key\":" << span.key
        << ",\"start_ns\":" << span.start_ns << ",\"end_ns\":" << span.end_ns
        << "}\n";
  }
  return static_cast<bool>(out);
}

ObsReading ObsReading::Take() {
  return ObsReading{greater::MetricsRegistry::Global().Snapshot()};
}

uint64_t ObsReading::Counter(const std::string& name) const {
  for (const auto& [key, value] : snapshot.counters) {
    if (key == name) return value;
  }
  return 0;
}

double ObsReading::HistogramMean(const std::string& name) const {
  for (const greater::HistogramSnapshot& hist : snapshot.histograms) {
    if (hist.name == name) {
      return SafeRatio(hist.sum, static_cast<double>(hist.count));
    }
  }
  return 0.0;
}

}  // namespace wallbench
