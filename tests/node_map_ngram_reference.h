#ifndef GREATER_TESTS_NODE_MAP_NGRAM_REFERENCE_H_
#define GREATER_TESTS_NODE_MAP_NGRAM_REFERENCE_H_

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/artifact_io.h"
#include "lm/ngram_lm.h"
#include "text/vocabulary.h"

namespace greater {

/// Test oracle for NGramLm's flat layout: the node-map n-gram model it
/// replaced. Counting runs on hash-map shards (per-level
/// context -> {total, token -> count}), chunk i on shard i % num_shards,
/// folded in shard-index order; finalize applies the prior corpus's
/// fractional weight first, then each cell's integer count as unit
/// increments, into per-level context -> {total, token -> count} double
/// maps; evaluation looks every count up per level. The equivalence suite
/// holds NGramLm to this model's serialized bytes and its
/// NextTokenDistribution, NextTokenWeightsRestricted and TokenLogProb bit
/// for bit.
class NodeMapNGramReference {
 public:
  NodeMapNGramReference(size_t vocab_size, const NGramLm::Options& options)
      : vocab_size_(vocab_size), options_(options) {
    options_.order = std::clamp<size_t>(options_.order, 2, kMaxOrder);
    levels_.resize(options_.order);
  }

  void SetPriorCorpus(const std::vector<TokenSequence>& sequences) {
    prior_ = sequences;
  }

  /// Counts `chunks` (chunk i on shard i % num_shards), folds the shards
  /// in index order and finalizes. Token ids are not validated.
  void Fit(const std::vector<std::vector<TokenSequence>>& chunks,
           size_t num_shards) {
    std::vector<Shard> shards(num_shards, Shard(options_.order));
    for (size_t i = 0; i < chunks.size(); ++i) {
      for (const TokenSequence& seq : chunks[i]) {
        shards[i % num_shards].Accumulate(seq);
      }
    }
    for (size_t s = 1; s < shards.size(); ++s) {
      shards[0].Merge(std::move(shards[s]));
    }
    FinalizeFromCounts(shards[0]);
    fitted_ = true;
  }

  std::vector<double> NextTokenDistribution(
      const TokenSequence& context) const {
    std::vector<double> dist(vocab_size_,
                             1.0 / static_cast<double>(vocab_size_));
    if (!fitted_) return dist;
    TokenSequence padded;
    padded.reserve(context.size() + 1);
    padded.push_back(Vocabulary::kBosId);
    padded.insert(padded.end(), context.begin(), context.end());
    for (size_t ctx_len = 0; ctx_len < options_.order; ++ctx_len) {
      if (ctx_len > padded.size()) break;
      Key key =
          PackContext(padded.data() + (padded.size() - ctx_len), ctx_len);
      auto it = levels_[ctx_len].find(key);
      if (it == levels_[ctx_len].end()) break;
      const ContextStats& stats = it->second;
      double distinct = static_cast<double>(stats.counts.size());
      double lambda = stats.total / (stats.total + distinct);
      double keep = 1.0 - lambda;
      for (double& p : dist) p *= keep;
      for (const auto& [token, count] : stats.counts) {
        dist[static_cast<size_t>(token)] += lambda * count / stats.total;
      }
    }
    return dist;
  }

  void NextTokenWeightsRestricted(const TokenSequence& context,
                                  const std::vector<TokenId>& candidates,
                                  std::vector<double>* out) const {
    double base = 1.0 / static_cast<double>(vocab_size_);
    out->assign(candidates.size(), 0.0);
    for (size_t i = 0; i < candidates.size(); ++i) {
      TokenId id = candidates[i];
      if (id >= 0 && static_cast<size_t>(id) < vocab_size_) (*out)[i] = base;
    }
    if (!fitted_) return;
    std::array<TokenId, kMaxOrder> eff{};
    size_t eff_len = EffectiveContext(context, &eff);
    for (size_t ctx_len = 0; ctx_len < options_.order; ++ctx_len) {
      if (ctx_len > eff_len) break;
      Key key = PackContext(eff.data() + (eff_len - ctx_len), ctx_len);
      auto it = levels_[ctx_len].find(key);
      if (it == levels_[ctx_len].end()) break;
      const ContextStats& stats = it->second;
      double distinct = static_cast<double>(stats.counts.size());
      double lambda = stats.total / (stats.total + distinct);
      double keep = 1.0 - lambda;
      for (size_t i = 0; i < candidates.size(); ++i) {
        TokenId id = candidates[i];
        if (id < 0 || static_cast<size_t>(id) >= vocab_size_) continue;
        (*out)[i] *= keep;
        auto count_it = stats.counts.find(id);
        if (count_it != stats.counts.end()) {
          (*out)[i] += lambda * count_it->second / stats.total;
        }
      }
    }
  }

  double TokenLogProb(const TokenSequence& context, TokenId token) const {
    if (token < 0 || static_cast<size_t>(token) >= vocab_size_) {
      return std::log(1e-300);
    }
    double p = 1.0 / static_cast<double>(vocab_size_);
    if (!fitted_) return std::log(std::max(p, 1e-300));
    std::array<TokenId, kMaxOrder> eff{};
    size_t eff_len = EffectiveContext(context, &eff);
    for (size_t ctx_len = 0; ctx_len < options_.order; ++ctx_len) {
      if (ctx_len > eff_len) break;
      Key key = PackContext(eff.data() + (eff_len - ctx_len), ctx_len);
      auto it = levels_[ctx_len].find(key);
      if (it == levels_[ctx_len].end()) break;
      const ContextStats& stats = it->second;
      double distinct = static_cast<double>(stats.counts.size());
      double lambda = stats.total / (stats.total + distinct);
      double keep = 1.0 - lambda;
      p *= keep;
      auto count_it = stats.counts.find(token);
      if (count_it != stats.counts.end()) {
        p += lambda * count_it->second / stats.total;
      }
    }
    return std::log(std::max(p, 1e-300));
  }

  std::string SerializeBinary() const {
    ByteWriter w;
    w.PutU64(vocab_size_);
    w.PutU64(options_.order);
    w.PutF64(options_.prior_weight);
    w.PutBool(fitted_);
    w.PutU32(static_cast<uint32_t>(levels_.size()));
    for (const LevelMap& level : levels_) {
      std::vector<const std::pair<const Key, ContextStats>*> entries;
      entries.reserve(level.size());
      for (const auto& entry : level) entries.push_back(&entry);
      std::sort(entries.begin(), entries.end(),
                [](const auto* a, const auto* b) {
                  if (a->first.len != b->first.len) {
                    return a->first.len < b->first.len;
                  }
                  return a->first.ids < b->first.ids;
                });
      w.PutU64(entries.size());
      for (const auto* entry : entries) {
        const Key& key = entry->first;
        const ContextStats& stats = entry->second;
        w.PutU32(key.len);
        for (uint32_t i = 0; i < key.len; ++i) {
          w.PutU32(static_cast<uint32_t>(key.ids[i]));
        }
        w.PutF64(stats.total);
        std::vector<std::pair<TokenId, double>> counts(stats.counts.begin(),
                                                       stats.counts.end());
        std::sort(counts.begin(), counts.end());
        w.PutU32(static_cast<uint32_t>(counts.size()));
        for (const auto& [token, count] : counts) {
          w.PutU32(static_cast<uint32_t>(token));
          w.PutF64(count);
        }
      }
    }
    ArtifactWriter doc("greater.ngram_lm", 1);
    doc.AddChunk("model", std::move(w).Take());
    return doc.Finish();
  }

 private:
  static constexpr size_t kMaxOrder = NGramLm::kMaxOrder;

  struct Key {
    std::array<TokenId, kMaxOrder - 1> ids{};
    uint32_t len = 0;
    bool operator==(const Key& other) const {
      return len == other.len && ids == other.ids;
    }
  };
  struct KeyHash {
    size_t operator()(const Key& key) const {
      uint64_t h = 0x9e3779b97f4a7c15ULL ^ key.len;
      for (uint32_t i = 0; i < key.len; ++i) {
        h ^= static_cast<uint64_t>(static_cast<uint32_t>(key.ids[i]));
        h *= 0xff51afd7ed558ccdULL;
        h ^= h >> 33;
      }
      return static_cast<size_t>(h);
    }
  };

  static Key PackContext(const TokenId* begin, size_t len) {
    Key key;
    key.len = static_cast<uint32_t>(len);
    for (size_t i = 0; i < len; ++i) key.ids[i] = begin[i];
    return key;
  }

  /// One node-map count shard: integer totals and per-token counts.
  struct Shard {
    struct ContextCounts {
      uint64_t total = 0;
      std::unordered_map<TokenId, uint64_t> counts;
    };
    using LevelCounts = std::unordered_map<Key, ContextCounts, KeyHash>;

    explicit Shard(size_t order) : order(order), levels(order) {}

    void Accumulate(const TokenSequence& sequence) {
      TokenSequence padded;
      padded.push_back(Vocabulary::kBosId);
      padded.insert(padded.end(), sequence.begin(), sequence.end());
      padded.push_back(Vocabulary::kEosId);
      for (size_t pos = 1; pos < padded.size(); ++pos) {
        TokenId target = padded[pos];
        size_t max_ctx = std::min(pos, order - 1);
        for (size_t ctx_len = 0; ctx_len <= max_ctx; ++ctx_len) {
          ContextCounts& cell = levels[ctx_len][PackContext(
              padded.data() + (pos - ctx_len), ctx_len)];
          ++cell.total;
          ++cell.counts[target];
        }
      }
    }

    void Merge(Shard&& other) {
      for (size_t k = 0; k < levels.size(); ++k) {
        for (auto& [key, cell] : other.levels[k]) {
          ContextCounts& into = levels[k][key];
          into.total += cell.total;
          for (const auto& [token, n] : cell.counts) into.counts[token] += n;
        }
        other.levels[k].clear();
      }
    }

    size_t order;
    std::vector<LevelCounts> levels;
  };

  struct ContextStats {
    double total = 0.0;
    std::unordered_map<TokenId, double> counts;
  };
  using LevelMap = std::unordered_map<Key, ContextStats, KeyHash>;

  static void AddUnitCounts(double* slot, uint64_t count) {
    if (*slot == 0.0) {
      *slot = static_cast<double>(count);
      return;
    }
    for (uint64_t i = 0; i < count; ++i) *slot += 1.0;
  }

  size_t EffectiveContext(const TokenSequence& context,
                          std::array<TokenId, kMaxOrder>* eff) const {
    size_t padded_size = context.size() + 1;
    size_t eff_len = std::min(options_.order - 1, padded_size);
    for (size_t j = 0; j < eff_len; ++j) {
      size_t idx = padded_size - eff_len + j;
      (*eff)[j] = idx == 0 ? Vocabulary::kBosId : context[idx - 1];
    }
    return eff_len;
  }

  void AccumulateSequence(const TokenSequence& sequence, double weight) {
    TokenSequence padded;
    padded.push_back(Vocabulary::kBosId);
    padded.insert(padded.end(), sequence.begin(), sequence.end());
    padded.push_back(Vocabulary::kEosId);
    for (size_t pos = 1; pos < padded.size(); ++pos) {
      TokenId target = padded[pos];
      size_t max_ctx = std::min(pos, options_.order - 1);
      for (size_t ctx_len = 0; ctx_len <= max_ctx; ++ctx_len) {
        ContextStats& stats = levels_[ctx_len][PackContext(
            padded.data() + (pos - ctx_len), ctx_len)];
        stats.total += weight;
        stats.counts[target] += weight;
      }
    }
  }

  void FinalizeFromCounts(const Shard& counts) {
    if (options_.prior_weight > 0.0) {
      for (const auto& seq : prior_) {
        AccumulateSequence(seq, options_.prior_weight);
      }
    }
    for (size_t k = 0; k < levels_.size(); ++k) {
      for (const auto& [key, cell] : counts.levels[k]) {
        ContextStats& stats = levels_[k][key];
        AddUnitCounts(&stats.total, cell.total);
        for (const auto& [token, n] : cell.counts) {
          AddUnitCounts(&stats.counts[token], n);
        }
      }
    }
  }

  size_t vocab_size_;
  NGramLm::Options options_;
  bool fitted_ = false;
  std::vector<LevelMap> levels_;
  std::vector<TokenSequence> prior_;
};

}  // namespace greater

#endif  // GREATER_TESTS_NODE_MAP_NGRAM_REFERENCE_H_
