#include "lm/ngram_lm.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <utility>

#include "common/artifact_io.h"
#include "common/thread_pool.h"
#include "obs/metrics.h"

namespace greater {
namespace {

// Applies `count` unit-weight observations to a slot exactly as `count`
// serial `+= 1.0` increments would. When the slot is empty the result is
// the integer itself (bitwise-equal to the stepwise sum for counts below
// 2^53); when fractional prior mass is already present, replay the
// increments so merged-count finalization matches the historical
// one-observation-at-a-time accumulation bit for bit.
void AddUnitCounts(double* slot, uint64_t count) {
  if (*slot == 0.0) {
    *slot = static_cast<double>(count);
    return;
  }
  for (uint64_t i = 0; i < count; ++i) *slot += 1.0;
}

}  // namespace

NGramLm::NGramLm(size_t vocab_size, const Options& options)
    : vocab_size_(vocab_size), options_(options) {
  options_.order = std::clamp<size_t>(options_.order, 2, kMaxOrder);
  levels_.resize(options_.order);  // context lengths 0 .. order-1
}

NGramLm::ContextKey NGramLm::PackContext(const TokenId* begin, size_t len) {
  ContextKey key;
  key.len = static_cast<uint32_t>(len);
  for (size_t i = 0; i < len; ++i) key.ids[i] = begin[i];
  return key;
}

Status NGramLm::SetPriorCorpus(const std::vector<TokenSequence>& sequences) {
  if (fitted_) {
    return Status::FailedPrecondition("SetPriorCorpus must precede Fit");
  }
  prior_ = sequences;
  return Status::OK();
}

void NGramLm::AccumulateSequence(const TokenSequence& sequence,
                                 double weight) {
  // Work on [bos, ...sequence, eos].
  TokenSequence padded;
  padded.reserve(sequence.size() + 2);
  padded.push_back(Vocabulary::kBosId);
  padded.insert(padded.end(), sequence.begin(), sequence.end());
  padded.push_back(Vocabulary::kEosId);

  for (size_t pos = 1; pos < padded.size(); ++pos) {
    TokenId target = padded[pos];
    size_t max_ctx = std::min(pos, options_.order - 1);
    for (size_t ctx_len = 0; ctx_len <= max_ctx; ++ctx_len) {
      ContextKey key =
          PackContext(padded.data() + (pos - ctx_len), ctx_len);
      ContextStats& stats = levels_[ctx_len][key];
      stats.total += weight;
      stats.counts[target] += weight;
    }
  }
}

void NGramLm::FinalizeFromCounts(const CountShard& counts) {
  // Prior corpus first, exactly as Fit has always ordered it: fractional
  // weights accumulate serially, so their rounding history is independent
  // of the shard plan.
  if (options_.prior_weight > 0.0) {
    for (const auto& seq : prior_) {
      AccumulateSequence(seq, options_.prior_weight);
    }
  }
  for (size_t k = 0; k < levels_.size() && k < counts.levels().size(); ++k) {
    const CountShard::LevelCounts& src = counts.levels()[k];
    LevelMap& dst = levels_[k];
    dst.reserve(dst.size() + src.size());
    for (const auto& [key, cell] : src) {
      ContextStats& stats = dst[key];
      if (stats.counts.empty()) {
        stats.counts.reserve(cell.counts.size());
      }
      AddUnitCounts(&stats.total, cell.total);
      for (const auto& [token, n] : cell.counts) {
        AddUnitCounts(&stats.counts[token], n);
      }
    }
  }
}

Status NGramLm::Fit(const std::vector<TokenSequence>& sequences) {
  // The one-chunk case of the shard-counting path: the caller's corpus is
  // counted in place, never copied.
  bool pulled = false;
  return CountShards(1, [&](ChunkWave* wave) {
    if (!std::exchange(pulled, true) && !sequences.empty()) {
      wave->push_back(&sequences);
    }
    return Status::OK();
  });
}

Status NGramLm::FitStreaming(const SequenceChunkIterator& next_chunk,
                             size_t num_shards) {
  num_shards = std::max<size_t>(1, num_shards);
  // Buffers up to num_shards non-empty chunks per wave; they stay alive
  // until the next wave is pulled, after this one is counted.
  std::vector<std::vector<TokenSequence>> held;
  bool done = false;
  return CountShards(num_shards, [&](ChunkWave* wave) -> Status {
    held.clear();
    while (!done && held.size() < num_shards) {
      GREATER_ASSIGN_OR_RETURN(std::optional<std::vector<TokenSequence>> chunk,
                               next_chunk());
      if (!chunk.has_value()) {
        done = true;
      } else if (!chunk->empty()) {
        held.push_back(std::move(*chunk));
      }
    }
    for (const std::vector<TokenSequence>& chunk : held) {
      wave->push_back(&chunk);
    }
    return Status::OK();
  });
}

Status NGramLm::CountShards(
    size_t num_shards,
    const std::function<Status(ChunkWave* wave)>& next_wave) {
  if (fitted_) {
    return Status::FailedPrecondition("NGramLm already fitted");
  }
  MetricsRegistry& metrics = MetricsRegistry::Global();
  metrics.GetGauge("lm.fit.shards").Set(static_cast<double>(num_shards));
  Counter& chunk_counter = metrics.GetCounter("lm.fit.shard_chunks");
  Counter& seq_counter = metrics.GetCounter("lm.fit.shard_sequences");

  std::vector<CountShard> shards;
  shards.reserve(num_shards);
  for (size_t s = 0; s < num_shards; ++s) shards.emplace_back(options_.order);
  std::unique_ptr<ThreadPool> pool;
  if (num_shards > 1) pool = std::make_unique<ThreadPool>(num_shards);

  // Wave position j runs on shard j, so global chunk i always lands on
  // shard i % num_shards — a fixed plan independent of scheduling.
  uint64_t total_sequences = 0;
  ChunkWave wave;
  for (;;) {
    wave.clear();
    GREATER_RETURN_NOT_OK(next_wave(&wave));
    if (wave.empty()) break;
    std::vector<Status> wave_status(wave.size());
    auto accumulate = [&](size_t shard, size_t begin, size_t end) {
      for (size_t i = begin; i < end; ++i) {
        wave_status[i] = shards[shard].AccumulateChunk(*wave[i], vocab_size_);
      }
    };
    if (pool != nullptr) {
      // count == num_shards == wave.size() partitions to [j, j+1) per
      // shard: wave position j accumulates into shards[j].
      pool->ParallelFor(wave.size(), wave.size(), accumulate);
    } else {
      accumulate(0, 0, wave.size());
    }
    for (size_t i = 0; i < wave.size(); ++i) {
      GREATER_RETURN_NOT_OK(wave_status[i]);
      total_sequences += wave[i]->size();
      seq_counter.Increment(wave[i]->size());
    }
    chunk_counter.Increment(wave.size());
  }
  if (total_sequences == 0) {
    return Status::Invalid("NGramLm::Fit requires at least one sequence");
  }

  // Fixed-order fold: shard 0 absorbs 1, then 2, ... Integer counts make
  // any order exact; the fixed order keeps the plan auditable.
  Counter& merge_counter = metrics.GetCounter("lm.fit.shard_merges");
  for (size_t s = 1; s < shards.size(); ++s) {
    shards[0].Merge(std::move(shards[s]));
    merge_counter.Increment();
  }
  FinalizeFromCounts(shards[0]);
  fitted_ = true;
  return Status::OK();
}

std::vector<double> NGramLm::NextTokenDistribution(
    const TokenSequence& context) const {
  // Base distribution: uniform over the vocabulary.
  std::vector<double> dist(vocab_size_, 1.0 / static_cast<double>(vocab_size_));
  if (!fitted_) return dist;

  // Effective context: implicit bos followed by the generated prefix.
  TokenSequence padded;
  padded.reserve(context.size() + 1);
  padded.push_back(Vocabulary::kBosId);
  padded.insert(padded.end(), context.begin(), context.end());

  // Interpolate from short to long contexts (Witten–Bell): at each level,
  // dist <- lambda * ML(level) + (1 - lambda) * dist.
  for (size_t ctx_len = 0; ctx_len < options_.order; ++ctx_len) {
    if (ctx_len > padded.size()) break;
    ContextKey key = PackContext(
        padded.data() + (padded.size() - ctx_len), ctx_len);
    auto it = levels_[ctx_len].find(key);
    if (it == levels_[ctx_len].end()) break;  // longer contexts unseen too
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

void NGramLm::NextTokenWeightsRestricted(const TokenSequence& context,
                                         const std::vector<TokenId>& candidates,
                                         DecodeWorkspace* ws,
                                         std::vector<double>* out) const {
  (void)ws;  // the n-gram fast path needs no scratch buffers
  static Counter* fast_path =
      &MetricsRegistry::Global().GetCounter("lm.restricted_fast_path");
  fast_path->Increment();
  // Per-candidate replay of the interpolation above, touching only the
  // candidate counts. Each candidate's value goes through the identical
  // multiply-then-add sequence as its slot in the full-vocabulary walk, so
  // the result matches a gather of NextTokenDistribution bit for bit.
  double base = 1.0 / static_cast<double>(vocab_size_);
  out->assign(candidates.size(), 0.0);
  for (size_t i = 0; i < candidates.size(); ++i) {
    TokenId id = candidates[i];
    if (id >= 0 && static_cast<size_t>(id) < vocab_size_) (*out)[i] = base;
  }
  if (!fitted_) return;

  // Only the last order-1 tokens of (bos + context) can be read; stage
  // them in a fixed-size buffer instead of materializing the prefix.
  std::array<TokenId, kMaxOrder> eff{};
  size_t padded_size = context.size() + 1;
  size_t eff_len = std::min(options_.order - 1, padded_size);
  for (size_t j = 0; j < eff_len; ++j) {
    size_t idx = padded_size - eff_len + j;
    eff[j] = idx == 0 ? Vocabulary::kBosId : context[idx - 1];
  }

  for (size_t ctx_len = 0; ctx_len < options_.order; ++ctx_len) {
    if (ctx_len > eff_len) break;
    ContextKey key = PackContext(eff.data() + (eff_len - ctx_len), ctx_len);
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

std::string NGramLm::SerializeBinary() const {
  ByteWriter w;
  w.PutU64(vocab_size_);
  w.PutU64(options_.order);
  w.PutF64(options_.prior_weight);
  w.PutBool(fitted_);
  w.PutU32(static_cast<uint32_t>(levels_.size()));
  for (const LevelMap& level : levels_) {
    // Sort entries by (len, ids) and counts by token id: unordered_map
    // iteration order must never leak into the byte stream.
    std::vector<const std::pair<const ContextKey, ContextStats>*> entries;
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
      const ContextKey& key = entry->first;
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

Status NGramLm::DeserializeBinary(std::string_view bytes) {
  GREATER_ASSIGN_OR_RETURN(
      ArtifactReader doc,
      ArtifactReader::Parse(std::string(bytes), "greater.ngram_lm", 1));
  GREATER_ASSIGN_OR_RETURN(std::string_view payload, doc.Chunk("model"));
  ByteReader r(payload);
  uint64_t vocab_size = 0, order = 0;
  GREATER_RETURN_NOT_OK(r.GetU64(&vocab_size));
  GREATER_RETURN_NOT_OK(r.GetU64(&order));
  if (order < 2 || order > kMaxOrder) {
    return Status::DataLoss("corrupt n-gram model: order " +
                            std::to_string(order) + " outside [2, " +
                            std::to_string(kMaxOrder) + "]");
  }
  Options options;
  options.order = order;
  GREATER_RETURN_NOT_OK(r.GetF64(&options.prior_weight));
  bool fitted = false;
  GREATER_RETURN_NOT_OK(r.GetBool(&fitted));
  uint32_t num_levels = 0;
  GREATER_RETURN_NOT_OK(r.GetU32(&num_levels));
  if (num_levels != order) {
    return Status::DataLoss("corrupt n-gram model: " +
                            std::to_string(num_levels) +
                            " levels for order " + std::to_string(order));
  }
  std::vector<LevelMap> levels(num_levels);
  for (uint32_t l = 0; l < num_levels; ++l) {
    uint64_t num_entries = 0;
    GREATER_RETURN_NOT_OK(r.GetU64(&num_entries));
    levels[l].reserve(num_entries);
    for (uint64_t e = 0; e < num_entries; ++e) {
      ContextKey key;
      GREATER_RETURN_NOT_OK(r.GetU32(&key.len));
      if (key.len >= kMaxOrder) {
        return Status::DataLoss("corrupt n-gram model: context length " +
                                std::to_string(key.len));
      }
      for (uint32_t i = 0; i < key.len; ++i) {
        uint32_t id = 0;
        GREATER_RETURN_NOT_OK(r.GetU32(&id));
        key.ids[i] = static_cast<TokenId>(id);
      }
      ContextStats stats;
      GREATER_RETURN_NOT_OK(r.GetF64(&stats.total));
      uint32_t num_counts = 0;
      GREATER_RETURN_NOT_OK(r.GetU32(&num_counts));
      stats.counts.reserve(num_counts);
      for (uint32_t c = 0; c < num_counts; ++c) {
        uint32_t token = 0;
        double count = 0.0;
        GREATER_RETURN_NOT_OK(r.GetU32(&token));
        GREATER_RETURN_NOT_OK(r.GetF64(&count));
        stats.counts[static_cast<TokenId>(token)] = count;
      }
      levels[l].emplace(key, std::move(stats));
    }
  }
  GREATER_RETURN_NOT_OK(r.ExpectEnd());
  vocab_size_ = vocab_size;
  options_ = options;
  fitted_ = fitted;
  levels_ = std::move(levels);
  prior_.clear();
  return Status::OK();
}

Status NGramLm::Save(const std::string& path) const {
  return AtomicWriteFile(path, SerializeBinary())
      .WithContext("saving n-gram LM to '" + path + "'");
}

Status NGramLm::Load(const std::string& path) {
  GREATER_ASSIGN_OR_RETURN_CTX(std::string bytes, ReadFileBytes(path),
                               "loading n-gram LM from '" + path + "'");
  return DeserializeBinary(bytes)
      .WithContext("loading n-gram LM from '" + path + "'");
}

double NGramLm::TokenLogProb(const TokenSequence& context, TokenId token,
                             DecodeWorkspace* ws) const {
  (void)ws;
  // Single-token replay of the interpolation: identical multiply-then-add
  // sequence as the token's slot in NextTokenDistribution, so the result
  // (and therefore Perplexity) is bitwise-unchanged — without the V-sized
  // vector per scored token.
  if (token < 0 || static_cast<size_t>(token) >= vocab_size_) {
    return std::log(1e-300);
  }
  double p = 1.0 / static_cast<double>(vocab_size_);
  if (!fitted_) return std::log(std::max(p, 1e-300));

  std::array<TokenId, kMaxOrder> eff{};
  size_t padded_size = context.size() + 1;
  size_t eff_len = std::min(options_.order - 1, padded_size);
  for (size_t j = 0; j < eff_len; ++j) {
    size_t idx = padded_size - eff_len + j;
    eff[j] = idx == 0 ? Vocabulary::kBosId : context[idx - 1];
  }
  for (size_t ctx_len = 0; ctx_len < options_.order; ++ctx_len) {
    if (ctx_len > eff_len) break;
    ContextKey key = PackContext(eff.data() + (eff_len - ctx_len), ctx_len);
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

}  // namespace greater
