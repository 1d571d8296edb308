#include "lm/ngram_lm.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <memory>
#include <utility>

#include "common/artifact_io.h"
#include "common/thread_pool.h"
#include "lm/decode_cache.h"
#include "obs/metrics.h"
#include "obs/span.h"

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

// A slot's value after `count` prior-corpus occurrences of weight
// `weight`: the serial `+= weight` sum the node-map fit accumulated.
double PriorMass(double weight, uint64_t count) {
  double mass = 0.0;
  for (uint64_t i = 0; i < count; ++i) mass += weight;
  return mass;
}

// One side of a run-vs-candidates merge is "much shorter" than the other
// when walking it with a binary search per element beats a linear merge.
constexpr size_t kGallopRatio = 8;

// An allow-list covering at least 1/kDenseRatio of the vocabulary is
// evaluated as a full-vocabulary walk plus a gather when its seen runs
// are long too (see NextTokenWeightsRestricted).
constexpr size_t kDenseRatio = 8;

}  // namespace

NGramLm::NGramLm(size_t vocab_size, const Options& options)
    : vocab_size_(vocab_size), options_(options) {
  options_.order = std::clamp<size_t>(options_.order, 2, kMaxOrder);
  levels_.resize(options_.order);  // context lengths 0 .. order-1
  for (size_t k = 0; k < levels_.size(); ++k) levels_[k].ctx_len = k;
  floor_ = BuildFloor(vocab_size_, fitted_, levels_[0]);
}

void NGramLm::Level::StartContext(const TokenId* ids, double total) {
  context_ids.insert(context_ids.end(), ids, ids + ctx_len);
  totals.push_back(total);
  run_begin.push_back(tokens.size());
}

double NGramLm::Level::Lambda(size_t c) const {
  double distinct = static_cast<double>(run_begin[c + 1] - run_begin[c]);
  return totals[c] / (totals[c] + distinct);
}

void NGramLm::Level::Seal() {
  run_begin.push_back(tokens.size());
  // Each cell's interpolation term, computed once with the exact
  // expression the node-map evaluation computed per lookup.
  masses.resize(counts.size());
  for (size_t c = 0; c < num_contexts(); ++c) {
    const double lambda = Lambda(c);
    for (size_t j = run_begin[c]; j < run_begin[c + 1]; ++j) {
      masses[j] = lambda * counts[j] / totals[c];
    }
  }
  size_t capacity = 2;
  while (capacity < 2 * num_contexts()) capacity <<= 1;
  index.assign(capacity, 0);
  const size_t mask = capacity - 1;
  for (size_t c = 0; c < num_contexts(); ++c) {
    size_t slot =
        HashTokenIds(context_ids.data() + c * ctx_len, ctx_len) & mask;
    while (index[slot] != 0) slot = (slot + 1) & mask;
    index[slot] = static_cast<uint32_t>(c + 1);
  }
}

size_t NGramLm::Level::Find(const TokenId* ids) const {
  if (index.empty()) return kNoContext;
  const size_t mask = index.size() - 1;
  size_t slot = HashTokenIds(ids, ctx_len) & mask;
  for (;;) {
    uint32_t entry = index[slot];
    if (entry == 0) return kNoContext;
    const size_t c = entry - 1;
    if (std::equal(ids, ids + ctx_len, context_ids.data() + c * ctx_len)) {
      return c;
    }
    slot = (slot + 1) & mask;
  }
}

Status NGramLm::SetPriorCorpus(const std::vector<TokenSequence>& sequences) {
  if (fitted_) {
    return Status::FailedPrecondition("SetPriorCorpus must precede Fit");
  }
  prior_ = sequences;
  return Status::OK();
}

void NGramLm::FinalizeFromCounts(CountShard* counts) {
  // The prior corpus is counted as integers too (unvalidated, like the
  // historical fit); its fractional weight is applied per cell below.
  CountShard prior_counts(options_.order);
  const double weight = options_.prior_weight;
  if (weight > 0.0) {
    for (const TokenSequence& seq : prior_) prior_counts.Accumulate(seq);
  }
  for (size_t k = 0; k < levels_.size(); ++k) {
    const std::vector<NGramCell> data = counts->TakeSortedLevel(k);
    const std::vector<NGramCell> prior = prior_counts.TakeSortedLevel(k);
    Level& level = levels_[k];
    level.tokens.reserve(data.size() + prior.size());
    level.counts.reserve(data.size() + prior.size());

    // Union of the two sorted cell lists, one context run at a time. A
    // context's total is its prior mass then its unit increments, the
    // order the node-map fit applied them in.
    uint64_t data_total = 0, prior_total = 0;
    auto close_context = [&] {
      if (level.totals.empty()) return;
      double total = PriorMass(weight, prior_total);
      AddUnitCounts(&total, data_total);
      level.totals.back() = total;
    };
    size_t i = 0, j = 0;
    while (i < data.size() || j < prior.size()) {
      const NGramCell* cell;
      uint64_t n_data = 0, n_prior = 0;
      if (j == prior.size() ||
          (i < data.size() && data[i].ids < prior[j].ids)) {
        cell = &data[i];
        n_data = data[i++].count;
      } else if (i == data.size() || prior[j].ids < data[i].ids) {
        cell = &prior[j];
        n_prior = prior[j++].count;
      } else {
        cell = &data[i];
        n_data = data[i++].count;
        n_prior = prior[j++].count;
      }
      const TokenId* ids = cell->ids.data();
      if (level.totals.empty() ||
          !std::equal(ids, ids + k,
                      level.context_ids.end() - static_cast<ptrdiff_t>(k))) {
        close_context();
        level.StartContext(ids, 0.0);
        data_total = prior_total = 0;
      }
      double value = PriorMass(weight, n_prior);
      AddUnitCounts(&value, n_data);
      level.tokens.push_back(ids[k]);
      level.counts.push_back(value);
      data_total += n_data;
      prior_total += n_prior;
    }
    close_context();
    level.Seal();
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
    {
      // Counting only: pulling the wave (parse, encode) stays outside.
      Span count_span("lm.fit.count");
      if (pool != nullptr) {
        // count == num_shards == wave.size() partitions to [j, j+1) per
        // shard: wave position j accumulates into shards[j].
        pool->ParallelFor(wave.size(), wave.size(), accumulate);
      } else {
        accumulate(0, 0, wave.size());
      }
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
  {
    Span merge_span("lm.fit.merge");
    Counter& merge_counter = metrics.GetCounter("lm.fit.shard_merges");
    for (size_t s = 1; s < shards.size(); ++s) {
      shards[0].Merge(std::move(shards[s]));
      merge_counter.Increment();
    }
  }
  {
    Span finalize_span("lm.fit.finalize");
    FinalizeFromCounts(&shards[0]);
  }
  floor_ = BuildFloor(vocab_size_, /*fitted=*/true, levels_[0]);
  fitted_ = true;
  return Status::OK();
}

std::vector<double> NGramLm::BuildFloor(size_t vocab_size, bool fitted,
                                        const Level& unigram) {
  // Level 0 is the same for every context, so its step of the walk
  // (uniform start, times keep, plus the cell's mass) is done once here
  // with the walk's expressions.
  std::vector<double> floor(vocab_size, 1.0 / static_cast<double>(vocab_size));
  if (!fitted || unigram.num_contexts() == 0) return floor;
  const double keep = 1.0 - unigram.Lambda(0);
  for (double& p : floor) p *= keep;
  for (size_t j = unigram.run_begin[0]; j < unigram.run_begin[1]; ++j) {
    size_t token = static_cast<size_t>(unigram.tokens[j]);
    if (token < floor.size()) floor[token] += unigram.masses[j];
  }
  return floor;
}

size_t NGramLm::FindRuns(const TokenSequence& context,
                         SeenRuns* runs) const {
  // The floor stands in for level 0. An unfitted model, or one without a
  // level-0 context (loader-reachable only), stays on its uniform floor.
  if (!fitted_ || levels_[0].num_contexts() == 0) return 0;
  // Only the last order-1 tokens of (bos + context) can be read; stage
  // them in a fixed-size buffer instead of materializing the prefix.
  std::array<TokenId, kMaxOrder> eff{};
  size_t padded_size = context.size() + 1;
  size_t eff_len = std::min(options_.order - 1, padded_size);
  for (size_t j = 0; j < eff_len; ++j) {
    size_t idx = padded_size - eff_len + j;
    eff[j] = idx == 0 ? Vocabulary::kBosId : context[idx - 1];
  }
  size_t count = 0;
  for (size_t ctx_len = 1; ctx_len <= eff_len; ++ctx_len) {
    const Level& level = levels_[ctx_len];
    size_t c = level.Find(eff.data() + (eff_len - ctx_len));
    if (c == Level::kNoContext) break;  // longer contexts unseen too
    const size_t begin = level.run_begin[c];
    (*runs)[count++] = {level.tokens.data() + begin,
                        level.masses.data() + begin,
                        level.run_begin[c + 1] - begin, 1.0 - level.Lambda(c)};
  }
  return count;
}

void NGramLm::DenseWalk(const SeenRuns& runs, size_t count,
                        std::vector<double>* dist) const {
  // Interpolate from short to long contexts (Witten–Bell): at each level,
  // p <- lambda * ML(level) + (1 - lambda) * p, where the lambda * ML term
  // of each seen token is the cell's frozen mass.
  dist->assign(floor_.begin(), floor_.end());
  for (size_t k = 0; k < count; ++k) {
    const SeenRun& run = runs[k];
    for (double& p : *dist) p *= run.keep;
    for (size_t j = 0; j < run.size; ++j) {
      size_t token = static_cast<size_t>(run.tokens[j]);
      if (token < dist->size()) (*dist)[token] += run.masses[j];
    }
  }
}

std::vector<double> NGramLm::NextTokenDistribution(
    const TokenSequence& context) const {
  SeenRuns runs;
  const size_t count = FindRuns(context, &runs);
  std::vector<double> dist;
  DenseWalk(runs, count, &dist);
  return dist;
}

void NGramLm::NextTokenWeightsRestricted(const TokenSequence& context,
                                         const std::vector<TokenId>& candidates,
                                         DecodeWorkspace* ws,
                                         std::vector<double>* out) const {
  static Counter* fast_path =
      &MetricsRegistry::Global().GetCounter("lm.restricted_fast_path");
  fast_path->Increment();
  // Each candidate's value goes through the identical multiply-then-add
  // sequence as its slot in the full-vocabulary walk, so the result
  // matches a gather of NextTokenDistribution bit for bit. Out-of-range
  // candidates stay at zero.
  const size_t n = candidates.size();
  const TokenId* cand = candidates.data();
  out->resize(n);
  double* w = out->data();
  auto in_range = [&](TokenId id) {
    return id >= 0 && static_cast<size_t>(id) < vocab_size_;
  };
  SeenRuns runs;
  const size_t count = FindRuns(context, &runs);
  size_t run_cells = 0;
  for (size_t k = 0; k < count; ++k) run_cells += runs[k].size;
  if (ws != nullptr && n * kDenseRatio >= vocab_size_ && run_cells >= n) {
    // Wide list against long runs: the full-vocabulary walk in the
    // workspace, then a gather — per level a vectorizable scale plus one
    // scatter per seen token, instead of a merge step per candidate.
    DenseWalk(runs, count, &ws->probs);
    for (size_t i = 0; i < n; ++i) {
      w[i] = in_range(cand[i]) ? ws->probs[static_cast<size_t>(cand[i])] : 0.0;
    }
    return;
  }

  bool ascending = true;  // strictly ascending and all in range
  TokenId prev = -1;
  for (size_t i = 0; i < n; ++i) {
    const TokenId id = cand[i];
    const bool ok = in_range(id);
    w[i] = ok ? floor_[static_cast<size_t>(id)] : 0.0;
    ascending = ascending && ok && id > prev;
    prev = id;
  }
  for (size_t k = 0; k < count; ++k) {
    const double keep = runs[k].keep;
    const size_t m = runs[k].size;
    const TokenId* tok = runs[k].tokens;
    const double* mass = runs[k].masses;
    if (!ascending || n * kGallopRatio < m) {
      // Unsorted or out-of-range candidates, or a run much longer than
      // the list: binary-search each candidate in the run.
      for (size_t i = 0; i < n; ++i) {
        TokenId id = cand[i];
        if (!in_range(id)) continue;
        w[i] *= keep;
        const TokenId* hit = std::lower_bound(tok, tok + m, id);
        if (hit != tok + m && *hit == id) w[i] += mass[hit - tok];
      }
      continue;
    }
    for (size_t i = 0; i < n; ++i) w[i] *= keep;
    if (m * kGallopRatio < n) {
      // Short run: binary-search each run token among the candidates.
      const TokenId* lo = cand;
      for (size_t j = 0; j < m; ++j) {
        lo = std::lower_bound(lo, cand + n, tok[j]);
        if (lo == cand + n) break;
        if (*lo == tok[j]) w[lo - cand] += mass[j];
      }
      continue;
    }
    // Comparable lengths: one linear merge with branch-free advances.
    size_t i = 0, j = 0;
    while (i < n && j < m) {
      const TokenId a = cand[i], b = tok[j];
      if (a == b) w[i] += mass[j];
      i += a <= b;
      j += b <= a;
    }
  }
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
  double p = floor_[static_cast<size_t>(token)];
  SeenRuns runs;
  const size_t count = FindRuns(context, &runs);
  for (size_t k = 0; k < count; ++k) {
    const SeenRun& run = runs[k];
    p *= run.keep;
    const TokenId* end = run.tokens + run.size;
    const TokenId* hit = std::lower_bound(run.tokens, end, token);
    if (hit != end && *hit == token) p += run.masses[hit - run.tokens];
  }
  return std::log(std::max(p, 1e-300));
}

std::string NGramLm::SerializeBinary() const {
  ByteWriter w;
  w.PutU64(vocab_size_);
  w.PutU64(options_.order);
  w.PutF64(options_.prior_weight);
  w.PutBool(fitted_);
  w.PutU32(static_cast<uint32_t>(levels_.size()));
  // Levels are frozen in (context, token) order: written as they lie.
  for (const Level& level : levels_) {
    w.PutU64(level.num_contexts());
    for (size_t c = 0; c < level.num_contexts(); ++c) {
      w.PutU32(static_cast<uint32_t>(level.ctx_len));
      for (size_t i = 0; i < level.ctx_len; ++i) {
        w.PutU32(static_cast<uint32_t>(level.context_ids[c * level.ctx_len + i]));
      }
      w.PutF64(level.totals[c]);
      w.PutU32(static_cast<uint32_t>(level.run_begin[c + 1] -
                                     level.run_begin[c]));
      for (size_t j = level.run_begin[c]; j < level.run_begin[c + 1]; ++j) {
        w.PutU32(static_cast<uint32_t>(level.tokens[j]));
        w.PutF64(level.counts[j]);
      }
    }
  }
  ArtifactWriter doc("greater.ngram_lm", 1);
  doc.AddChunk("model", std::move(w).Take());
  return doc.Finish();
}

Status NGramLm::DeserializeBinary(std::string_view bytes,
                                  std::optional<size_t> vocab_size_expected) {
  GREATER_ASSIGN_OR_RETURN(
      ArtifactReader doc,
      ArtifactReader::Parse(std::string(bytes), "greater.ngram_lm", 1));
  GREATER_ASSIGN_OR_RETURN(std::string_view payload, doc.Chunk("model"));
  ByteReader r(payload);
  uint64_t vocab_size = 0, order = 0;
  GREATER_RETURN_NOT_OK(r.GetU64(&vocab_size));
  GREATER_RETURN_NOT_OK(r.GetU64(&order));
  // The unigram floor holds one double per token id, and ids are TokenId.
  if (vocab_size > uint64_t{std::numeric_limits<TokenId>::max()} + 1) {
    return Status::DataLoss("corrupt n-gram model: vocabulary size " +
                            std::to_string(vocab_size) +
                            " beyond the token id range");
  }
  if (vocab_size_expected && vocab_size != *vocab_size_expected) {
    return Status::DataLoss("corrupt n-gram model: vocabulary size " +
                            std::to_string(vocab_size) + ", expected " +
                            std::to_string(*vocab_size_expected));
  }
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
  auto corrupt = [](const std::string& what) {
    return Status::DataLoss("corrupt n-gram model: " + what);
  };
  auto valid_count = [](double v) { return std::isfinite(v) && v >= 0.0; };
  // The byte stream is already in frozen order, so the CSR levels are
  // filled directly; every length is bounded by the bytes left before
  // anything is reserved.
  std::vector<Level> levels(num_levels);
  for (uint32_t l = 0; l < num_levels; ++l) {
    Level& level = levels[l];
    level.ctx_len = l;
    // Smallest context entry: u32 length, l u32 ids, f64 total, u32
    // count of cells; each cell is a u32 token and an f64 count.
    const size_t entry_bytes = 4 + 4 * size_t{l} + 8 + 4;
    const size_t cell_bytes = 4 + 8;
    uint64_t num_entries = 0;
    GREATER_RETURN_NOT_OK(r.GetU64(&num_entries));
    if (num_entries > r.remaining() / entry_bytes) {
      return corrupt("level " + std::to_string(l) + " claims " +
                     std::to_string(num_entries) + " contexts");
    }
    level.totals.reserve(num_entries);
    level.run_begin.reserve(num_entries + 1);
    level.context_ids.reserve(num_entries * l);
    std::array<TokenId, kMaxOrder> ids{};
    for (uint64_t e = 0; e < num_entries; ++e) {
      uint32_t len = 0;
      GREATER_RETURN_NOT_OK(r.GetU32(&len));
      if (len != l) {
        return corrupt("context length " + std::to_string(len) +
                       " at level " + std::to_string(l));
      }
      for (uint32_t i = 0; i < len; ++i) {
        uint32_t id = 0;
        GREATER_RETURN_NOT_OK(r.GetU32(&id));
        ids[i] = static_cast<TokenId>(id);
      }
      if (e > 0) {
        const TokenId* last = level.context_ids.data() + (e - 1) * l;
        if (!std::lexicographical_compare(last, last + l, ids.data(),
                                          ids.data() + l)) {
          return corrupt("contexts at level " + std::to_string(l) +
                         " unsorted or duplicated");
        }
      }
      double total = 0.0;
      GREATER_RETURN_NOT_OK(r.GetF64(&total));
      if (!valid_count(total)) return corrupt("invalid context total");
      uint32_t num_counts = 0;
      GREATER_RETURN_NOT_OK(r.GetU32(&num_counts));
      if (num_counts > r.remaining() / cell_bytes) {
        return corrupt("context claims " + std::to_string(num_counts) +
                       " counts");
      }
      level.StartContext(ids.data(), total);
      for (uint32_t c = 0; c < num_counts; ++c) {
        uint32_t token = 0;
        double count = 0.0;
        GREATER_RETURN_NOT_OK(r.GetU32(&token));
        GREATER_RETURN_NOT_OK(r.GetF64(&count));
        if (c > 0 && static_cast<TokenId>(token) <= level.tokens.back()) {
          return corrupt("tokens unsorted or duplicated");
        }
        if (!valid_count(count)) return corrupt("invalid token count");
        level.tokens.push_back(static_cast<TokenId>(token));
        level.counts.push_back(count);
      }
    }
    level.Seal();
  }
  GREATER_RETURN_NOT_OK(r.ExpectEnd());
  // Built before any member changes, so a failed allocation leaves the
  // model as it was.
  std::vector<double> floor = BuildFloor(vocab_size, fitted, levels[0]);
  vocab_size_ = vocab_size;
  options_ = options;
  fitted_ = fitted;
  levels_ = std::move(levels);
  floor_ = std::move(floor);
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

}  // namespace greater
