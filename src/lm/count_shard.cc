#include "lm/count_shard.h"

#include <algorithm>
#include <string>
#include <utility>

namespace greater {

void NGramCellTable::Add(const TokenId* ids, uint64_t hash, uint64_t count) {
  if (2 * (size_ + 1) > slots_.size()) Grow();
  const size_t mask = slots_.size() - 1;
  size_t slot = hash & mask;
  for (;;) {
    NGramCell& cell = slots_[slot];
    if (cell.count == 0) {
      std::copy(ids, ids + width_, cell.ids.begin());
      cell.count = count;
      ++size_;
      return;
    }
    if (std::equal(ids, ids + width_, cell.ids.begin())) {
      cell.count += count;
      return;
    }
    slot = (slot + 1) & mask;
  }
}

void NGramCellTable::Grow() {
  std::vector<NGramCell> old = std::move(slots_);
  slots_.assign(old.empty() ? 16 : 2 * old.size(), NGramCell{});
  const size_t mask = slots_.size() - 1;
  for (const NGramCell& cell : old) {
    if (cell.count == 0) continue;
    size_t slot = HashTokenIds(cell.ids.data(), width_) & mask;
    while (slots_[slot].count != 0) slot = (slot + 1) & mask;
    slots_[slot] = cell;
  }
}

std::vector<NGramCell> NGramCellTable::TakeSorted() {
  std::vector<NGramCell> cells = std::move(slots_);
  slots_.clear();
  size_ = 0;
  cells.erase(std::remove_if(cells.begin(), cells.end(),
                             [](const NGramCell& c) { return c.count == 0; }),
              cells.end());
  std::sort(cells.begin(), cells.end(),
            [](const NGramCell& a, const NGramCell& b) { return a.ids < b.ids; });
  return cells;
}

void NGramCellTable::Absorb(NGramCellTable&& other) {
  // Re-insert into whichever table is larger: counts add exactly, so the
  // direction only changes how many probes the merge costs.
  if (other.size_ > size_) {
    std::swap(slots_, other.slots_);
    std::swap(size_, other.size_);
  }
  for (const NGramCell& cell : other.slots_) {
    if (cell.count != 0) {
      Add(cell.ids.data(), HashTokenIds(cell.ids.data(), width_), cell.count);
    }
  }
  other.slots_ = {};
  other.size_ = 0;
}

CountShard::CountShard(size_t order) : order_(order) {
  order_ = std::clamp<size_t>(order_, 2, kNGramMaxOrder);
  levels_.reserve(order_);
  for (size_t k = 0; k < order_; ++k) levels_.emplace_back(k + 1);
}

void CountShard::Accumulate(const CountTokenSequence& sequence) {
  padded_.clear();
  padded_.reserve(sequence.size() + 2);
  padded_.push_back(Vocabulary::kBosId);
  padded_.insert(padded_.end(), sequence.begin(), sequence.end());
  padded_.push_back(Vocabulary::kEosId);

  // The level-k n-gram ending at `pos` is the contiguous window
  // padded_[pos - k, pos]: context then target, keyed in place. Each
  // position hashes and prefetches all its levels before probing any, so
  // the per-level cache misses overlap instead of queueing.
  std::array<uint64_t, kNGramMaxOrder> hashes;
  for (size_t pos = 1; pos < padded_.size(); ++pos) {
    size_t max_ctx = std::min(pos, order_ - 1);
    for (size_t ctx_len = 0; ctx_len <= max_ctx; ++ctx_len) {
      hashes[ctx_len] =
          HashTokenIds(padded_.data() + (pos - ctx_len), ctx_len + 1);
      levels_[ctx_len].Prefetch(hashes[ctx_len]);
    }
    for (size_t ctx_len = 0; ctx_len <= max_ctx; ++ctx_len) {
      levels_[ctx_len].Add(padded_.data() + (pos - ctx_len), hashes[ctx_len],
                           1);
    }
  }
  ++sequences_;
}

Status CountShard::AccumulateChunk(
    const std::vector<CountTokenSequence>& sequences, size_t vocab_size) {
  for (const CountTokenSequence& seq : sequences) {
    for (TokenId id : seq) {
      if (id < 0 || static_cast<size_t>(id) >= vocab_size) {
        return Status::OutOfRange("token id " + std::to_string(id) +
                                  " outside vocab of size " +
                                  std::to_string(vocab_size));
      }
    }
  }
  for (const CountTokenSequence& seq : sequences) Accumulate(seq);
  return Status::OK();
}

void CountShard::Merge(CountShard&& other) {
  for (size_t k = 0; k < levels_.size() && k < other.levels_.size(); ++k) {
    levels_[k].Absorb(std::move(other.levels_[k]));
  }
  sequences_ += other.sequences_;
  other.sequences_ = 0;
}

}  // namespace greater
