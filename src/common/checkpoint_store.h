#ifndef GREATER_COMMON_CHECKPOINT_STORE_H_
#define GREATER_COMMON_CHECKPOINT_STORE_H_

#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <string_view>

#include "common/artifact_io.h"
#include "common/status.h"

namespace greater {

/// Which grain a store persists. The scope fixes the artifact kind, the
/// file prefix, and the counter names; nothing else differs.
enum class CheckpointScope {
  /// Pipeline stages and the out-of-core model: kind
  /// "greater.stage_checkpoint", files `stage.<name>.<key>.ckpt`,
  /// counters ckpt.stage_{hits,misses,corrupt,stores,store_failures}.
  kStage,
  /// Ingest and emission chunks: kind "greater.chunk_checkpoint", files
  /// `chunk.<label>.<index>.<key>.ckpt`, counters
  /// stream.chunk_{hits,misses,corrupt,stores,store_failures}.
  kChunk,
};

/// Content-chained checkpoint store: the one persistence layer behind
/// every resumable grain (DESIGN.md, "Durability & recovery").
///
/// A grain persists to `<dir>/<scope>.[<label>.]<name>.<key>.ckpt`, where
/// `key` is a running length-prefixed FNV-1a chain over everything
/// upstream of it. Callers advance the chain with Mix — stage callers
/// with the run fingerprint and each stored document, chunk callers with
/// an options fingerprint and each chunk's raw input — so the hit and miss
/// paths chain identically and any upstream change flips every downstream
/// key: stale state is never reused.
///
/// Failure policy: checkpoints accelerate, never gate. TryRestore counts
/// a hit only when the caller's decoder accepts the document. An absent
/// or unreadable file (or an injected "ckpt.read" fault) is a miss; a
/// document that fails the container check or the decoder is corrupt
/// plus a miss, and the caller recomputes. A failed Store (injected
/// "ckpt.write" fault, full disk) is counted and swallowed; the atomic
/// writer leaves any previous file intact. A disabled store (empty `dir`)
/// restores, stores, counts and hashes nothing: only an enabled store
/// reads keys.
///
/// Mix is single-threaded; TryRestore and Store are thread-safe, so chunk
/// parse workers store concurrently under keys the reader captured.
class CheckpointStore {
 public:
  static constexpr uint32_t kVersion = 1;

  /// `label` names a chunk store's grain (e.g. "ingest.child1"); stage
  /// stores leave it empty.
  CheckpointStore(CheckpointScope scope, std::string dir,
                  std::string label = "");

  bool enabled() const { return !dir_.empty(); }

  /// An empty document of this store's kind and version.
  ArtifactWriter Document() const;

  /// Folds `bytes` into the chain and returns the new key (unchanged
  /// when disabled).
  uint64_t Mix(std::string_view bytes);
  uint64_t chain() const { return chain_; }

  /// Loads grain `name` at `key` and hands the document to `decode`.
  /// True (a hit) only when `decode` returns OK; `decode` must leave the
  /// caller's state untouched when it fails, since the caller then
  /// recomputes.
  bool TryRestore(std::string_view name, uint64_t key,
                  const std::function<Status(const ArtifactReader&)>& decode);

  /// Best-effort persist of a finished document under `name` at `key`.
  void Store(std::string_view name, uint64_t key, std::string_view document);

 private:
  struct Counters;

  /// File holding grain `name` at `key`.
  std::string Path(std::string_view name, uint64_t key) const;

  const CheckpointScope scope_;
  const std::string dir_;
  const std::string file_prefix_;
  const Counters& counters_;
  uint64_t chain_;

  std::mutex dir_mu_;
  bool dir_ready_ = false;
};

}  // namespace greater

#endif  // GREATER_COMMON_CHECKPOINT_STORE_H_
