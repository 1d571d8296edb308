#include "common/checkpoint_store.h"

#include <sys/stat.h>
#include <sys/types.h>

#include <cerrno>
#include <cstdio>
#include <utility>

#include "obs/metrics.h"

namespace greater {

namespace {

// FNV-1a, 64-bit. Not cryptographic — the chain guards against stale
// reuse across honest input changes, not adversarial collisions; CRC32
// inside the artifact container covers on-disk corruption.
constexpr uint64_t kFnvOffset = 0xcbf29ce484222325ull;
constexpr uint64_t kFnvPrime = 0x00000100000001b3ull;

uint64_t Fnv1a(std::string_view bytes, uint64_t h) {
  for (char c : bytes) {
    h ^= static_cast<uint8_t>(c);
    h *= kFnvPrime;
  }
  return h;
}

std::string HexU64(uint64_t v) {
  char hex[17];
  std::snprintf(hex, sizeof(hex), "%016llx",
                static_cast<unsigned long long>(v));
  return hex;
}

const char* Kind(CheckpointScope scope) {
  return scope == CheckpointScope::kStage ? "greater.stage_checkpoint"
                                          : "greater.chunk_checkpoint";
}

}  // namespace

struct CheckpointStore::Counters {
  explicit Counters(const std::string& p)
      : hits(Get(p + "hits")), misses(Get(p + "misses")),
        corrupt(Get(p + "corrupt")), stores(Get(p + "stores")),
        store_failures(Get(p + "store_failures")) {}
  static Counter& Get(const std::string& name) {
    return MetricsRegistry::Global().GetCounter(name);
  }
  Counter &hits, &misses, &corrupt, &stores, &store_failures;
};

CheckpointStore::CheckpointStore(CheckpointScope scope, std::string dir,
                                 std::string label)
    : scope_(scope),
      dir_(std::move(dir)),
      file_prefix_(dir_ +
                   (scope == CheckpointScope::kStage ? "/stage." : "/chunk.") +
                   (label.empty() ? "" : label + ".")),
      counters_([scope]() -> const Counters& {
        static const Counters stage("ckpt.stage_");
        static const Counters chunk("stream.chunk_");
        return scope == CheckpointScope::kStage ? stage : chunk;
      }()),
      chain_(kFnvOffset) {}

ArtifactWriter CheckpointStore::Document() const {
  return ArtifactWriter(Kind(scope_), kVersion);
}

uint64_t CheckpointStore::Mix(std::string_view bytes) {
  if (!enabled()) return chain_;
  // Length-prefix each contribution so Mix("ab") + Mix("c") never
  // collides with Mix("a") + Mix("bc").
  uint64_t len = bytes.size();
  char prefix[8];
  for (int i = 0; i < 8; ++i) {
    prefix[i] = static_cast<char>((len >> (8 * i)) & 0xff);
  }
  chain_ = Fnv1a(bytes, Fnv1a(std::string_view(prefix, 8), chain_));
  return chain_;
}

std::string CheckpointStore::Path(std::string_view name, uint64_t key) const {
  return file_prefix_ + std::string(name) + "." + HexU64(key) + ".ckpt";
}

bool CheckpointStore::TryRestore(
    std::string_view name, uint64_t key,
    const std::function<Status(const ArtifactReader&)>& decode) {
  if (!enabled()) return false;
  Result<std::string> bytes = ReadFileBytes(Path(name, key));
  if (!bytes.ok()) {
    // Absent file, unreadable file, injected "ckpt.read" fault.
    counters_.misses.Increment();
    return false;
  }
  Result<ArtifactReader> doc =
      ArtifactReader::Parse(std::move(bytes).ValueOrDie(), Kind(scope_),
                            kVersion);
  // Torn write survivor, bit rot, a future format, or a well-formed
  // container the grain cannot decode: typed corruption, degraded to a
  // recompute — never a crash, never partial state.
  if (!doc.ok() || !decode(*doc).ok()) {
    counters_.corrupt.Increment();
    counters_.misses.Increment();
    return false;
  }
  counters_.hits.Increment();
  return true;
}

void CheckpointStore::Store(std::string_view name, uint64_t key,
                            std::string_view document) {
  if (!enabled()) return;
  {
    std::lock_guard<std::mutex> lock(dir_mu_);
    if (!dir_ready_) {
      if (::mkdir(dir_.c_str(), 0777) != 0 && errno != EEXIST) {
        counters_.store_failures.Increment();
        return;
      }
      dir_ready_ = true;
    }
  }
  if (AtomicWriteFile(Path(name, key), document).ok()) {
    counters_.stores.Increment();
  } else {
    counters_.store_failures.Increment();
  }
}

}  // namespace greater
