#ifndef GREATER_COMMON_FAULT_H_
#define GREATER_COMMON_FAULT_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <random>
#include <string>
#include <unordered_map>
#include <utility>

#include "common/status.h"

namespace greater {

/// Deterministic fault injection for robustness testing.
///
/// Library code marks recoverable failure sites with named fault points:
///
///   Status Fit(...) {
///     GREATER_FAULT_POINT("lm.fit");
///     ...
///   }
///
/// Tests arm a point with a FaultSpec (status code, count trigger, or
/// seeded probability trigger) through the global FaultRegistry; the next
/// matching execution of the point returns the injected Status exactly as
/// if the guarded operation had failed. When nothing is armed the macro is
/// a single relaxed atomic load and a predictable branch — safe to leave
/// in release builds.
///
/// Registered points in this repo (see DESIGN.md "Failure model"):
///   "csv.read"          ReadCsvString entry
///   "lm.fit"            GreatSynthesizer fitting core (Fit and
///                       FitStreaming), before the first chunk pass
///   "synth.sample_row"  BatchDecodeEngine::StartLane, once per row
///   "pipeline.flatten"  DirectFlatten entry
///   "pipeline.reduce"   RemoveAndReduce entry
///   "ckpt.write"        AtomicWriteFile, before any filesystem mutation
///   "ckpt.read"         ReadFileBytes entry (artifact/checkpoint loads)
///   "stream.queue_full"   BoundedQueue::Push while the queue is full,
///                         before the producer blocks (backpressure path)
///   "stream.chunk_parse"  streaming CSV ingest, once per parsed chunk
///   "stream.worker_death" streaming stage worker: the worker stops
///                         heartbeating and exits without reporting, so
///                         only the watchdog can detect it (also honored
///                         by serving-layer sampler workers)
///   "serve.admit"         SynthesisServer::Submit, per request: a fired
///                         fault rejects that request typed before it
///                         enters the admission queue
///   "serve.pack"          serving packing sweep, once per request as its
///                         first lanes are packed: the tripped request
///                         fails typed, co-scheduled requests proceed
///   "serve.evict"         memory-pressure eviction sweep, once per
///                         eviction candidate: a fired fault aborts the
///                         sweep, leaving the bundle resident (models a
///                         pinned or unevictable bundle)
///   "serve.reload"        evicted-bundle reload on the tenant's next
///                         request: the submit that needed the reload
///                         fails typed; the bundle stays evicted
struct FaultSpec {
  static constexpr size_t kUnlimited = static_cast<size_t>(-1);

  /// Status code the injected failure carries.
  StatusCode code = StatusCode::kInternal;
  /// Error message; empty -> "injected fault at '<point>'".
  std::string message;
  /// When > 0, the injected Status carries this retry-after hint
  /// (Status::WithRetryAfter) — lets tests exercise hint-honoring backoff
  /// paths without a real overloaded server.
  uint64_t retry_after_ms = 0;
  /// Number of hits that pass through before the point becomes eligible.
  size_t skip_hits = 0;
  /// Maximum number of times the point fires; further hits pass through.
  size_t max_fires = kUnlimited;
  /// Chance an eligible hit fires. Draws come from a generator seeded with
  /// `seed`, so a given spec produces the same fire pattern on every run.
  double probability = 1.0;
  uint64_t seed = 0;
};

class FaultRegistry {
 public:
  /// The process-wide registry used by GREATER_FAULT_POINT.
  static FaultRegistry& Global();

  /// Arms (or re-arms, resetting counters) a named fault point.
  void Arm(const std::string& point, FaultSpec spec = FaultSpec());

  /// Disarms one point; unknown names are a no-op.
  void Disarm(const std::string& point);

  /// Disarms everything. Tests call this in teardown.
  void DisarmAll();

  /// Times an armed point was reached / actually fired. Both are zero for
  /// unarmed points (hits are not tracked while disarmed).
  size_t hits(const std::string& point) const;
  size_t fires(const std::string& point) const;

  /// Evaluates a fault point: returns the injected error if `point` is
  /// armed and its trigger fires, OK otherwise.
  Status Check(const std::string& point);

  /// True when any point in any registry is armed. Lock-free fast path for
  /// the GREATER_FAULT_POINT macro.
  static bool AnyArmed() {
    return armed_count_.load(std::memory_order_relaxed) > 0;
  }

 private:
  struct Entry {
    FaultSpec spec;
    size_t hits = 0;
    size_t fires = 0;
    std::mt19937_64 rng;
  };

  static std::atomic<size_t> armed_count_;

  mutable std::mutex mu_;
  std::unordered_map<std::string, Entry> entries_;
};

/// Arms a fault point for the lifetime of a scope (RAII test helper).
class ScopedFault {
 public:
  explicit ScopedFault(std::string point, FaultSpec spec = FaultSpec())
      : point_(std::move(point)) {
    FaultRegistry::Global().Arm(point_, std::move(spec));
  }
  ~ScopedFault() { FaultRegistry::Global().Disarm(point_); }

  ScopedFault(const ScopedFault&) = delete;
  ScopedFault& operator=(const ScopedFault&) = delete;

  const std::string& point() const { return point_; }

 private:
  std::string point_;
};

/// Evaluates the named fault point, returning the injected Status from the
/// enclosing function when it fires. Compiles to an unarmed-branch no-op
/// when no fault is armed anywhere.
#define GREATER_FAULT_POINT(point)                         \
  do {                                                     \
    if (::greater::FaultRegistry::AnyArmed()) {            \
      ::greater::Status _greater_fault =                   \
          ::greater::FaultRegistry::Global().Check(point); \
      if (!_greater_fault.ok()) return _greater_fault;     \
    }                                                      \
  } while (0)

}  // namespace greater

#endif  // GREATER_COMMON_FAULT_H_
