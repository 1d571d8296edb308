#ifndef GREATER_LM_COUNT_SHARD_H_
#define GREATER_LM_COUNT_SHARD_H_

#include <array>
#include <cstdint>
#include <vector>

#include "common/status.h"
#include "text/vocabulary.h"

namespace greater {

/// Token sequence alias mirrored from lm/language_model.h (kept local so
/// the count layer does not pull in the full model interface).
using CountTokenSequence = std::vector<TokenId>;

/// Maximum n-gram order shared by the count shards and NGramLm
/// (NGramLm::kMaxOrder aliases this).
inline constexpr size_t kNGramMaxOrder = 8;

/// Hash of `len` token ids, shared by the count tables and NGramLm's
/// frozen context index. Mixes every id, then finalizes with the
/// MurmurHash3 avalanche so the low bits suit power-of-two masking.
inline uint64_t HashTokenIds(const TokenId* ids, size_t len) {
  uint64_t h = 0x9e3779b97f4a7c15ULL ^ len;
  for (size_t i = 0; i < len; ++i) {
    h ^= static_cast<uint64_t>(static_cast<uint32_t>(ids[i]));
    h *= 0xff51afd7ed558ccdULL;
    h ^= h >> 33;
  }
  h *= 0xc4ceb9fe1a85ec53ULL;
  h ^= h >> 33;
  return h;
}

/// One counted n-gram of a level-k table: ids[0, k) is the context,
/// ids[k] the target token. Unused ids stay zero, so comparing whole
/// arrays orders cells by (context, token).
struct NGramCell {
  std::array<TokenId, kNGramMaxOrder> ids{};
  uint64_t count = 0;  ///< 0 marks an empty table slot
};

/// Open-addressed (linear probing) table of one level's n-gram cells with
/// the key stored inline: one probe sequence per counted n-gram, no node
/// allocation. Capacity is a power of two and doubles once the table is
/// half full.
class NGramCellTable {
 public:
  /// `width` = ids per key (context length + 1).
  explicit NGramCellTable(size_t width) : width_(width) {}

  size_t size() const { return size_; }

  /// Adds `count` (> 0) to the cell keyed by ids[0, width), whose
  /// HashTokenIds is `hash`.
  void Add(const TokenId* ids, uint64_t hash, uint64_t count);

  /// Hints the cache line `hash`'s probe starts at, so a caller touching
  /// several tables can overlap their misses.
  void Prefetch(uint64_t hash) const {
    if (!slots_.empty()) {
      __builtin_prefetch(&slots_[hash & (slots_.size() - 1)], 1);
    }
  }

  /// Moves the cells out sorted by (context, token), leaving the table
  /// empty. Compacts and sorts the slot array in place: no second copy.
  std::vector<NGramCell> TakeSorted();

  /// Re-inserts every cell of `other` and empties it.
  void Absorb(NGramCellTable&& other);

 private:
  void Grow();

  size_t width_;
  size_t size_ = 0;
  std::vector<NGramCell> slots_;
};

/// One shard's n-gram count tables: one NGramCellTable per context length,
/// keyed by (context, target) with integer counts. Counts are unsigned
/// integers, so merging shards is exact regardless of merge order — the
/// foundation of NGramLm::FitStreaming's "bitwise-identical at any shard
/// count" contract (floating-point accumulation happens once, at finalize,
/// in a fixed serial order). Per-context totals are not counted here:
/// finalize sums them from each context's sorted run.
///
/// A shard is also the per-worker arena for streaming fit: the padded
/// scratch sequence is a member reused across every accumulated sequence,
/// so steady-state accumulation allocates only when a table doubles.
class CountShard {
 public:
  /// `order` is the n-gram order (context lengths 0 .. order-1), already
  /// clamped by the caller to [2, kNGramMaxOrder].
  explicit CountShard(size_t order);

  size_t order() const { return order_; }
  uint64_t sequences() const { return sequences_; }

  /// Counts every n-gram of [bos, ...sequence, eos] with unit weight.
  void Accumulate(const CountTokenSequence& sequence);

  /// Validates every token id in `sequences` against `vocab_size` (same
  /// error contract as NGramLm::Fit), then accumulates each sequence.
  /// Validation completes before any accumulation, so a failed chunk
  /// leaves the shard with no partial contribution from it.
  Status AccumulateChunk(const std::vector<CountTokenSequence>& sequences,
                         size_t vocab_size);

  /// Folds `other`'s counts into this shard. Integer addition is exact,
  /// so any fold order yields identical tables; callers still fold in
  /// fixed shard-index order to keep the plan auditable.
  void Merge(CountShard&& other);

  /// Moves level `k`'s cells out sorted by (context, token); the level is
  /// left empty.
  std::vector<NGramCell> TakeSortedLevel(size_t k) {
    return levels_[k].TakeSorted();
  }

 private:
  size_t order_;
  uint64_t sequences_ = 0;
  std::vector<NGramCellTable> levels_;  // levels_[k]: contexts of length k
  CountTokenSequence padded_;           // reusable [bos, seq..., eos] scratch
};

}  // namespace greater

#endif  // GREATER_LM_COUNT_SHARD_H_
