#include "lm/decode_cache.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstring>

#include "obs/metrics.h"

namespace greater {
namespace {

// SplitMix64-style mixing shared by the key hashes.
inline uint64_t MixStep(uint64_t h, uint64_t value) {
  h ^= value;
  h *= 0xff51afd7ed558ccdULL;
  h ^= h >> 33;
  return h;
}

uint64_t HashTokenSpan(const TokenId* ids, size_t len, uint64_t seed) {
  uint64_t h = 0x9e3779b97f4a7c15ULL ^ seed;
  for (size_t i = 0; i < len; ++i) {
    h = MixStep(h, static_cast<uint64_t>(static_cast<uint32_t>(ids[i])));
  }
  return h;
}

// Global cache instrumentation; pointers cached once per process so the
// hit path is one relaxed atomic add.
struct CacheCounters {
  Counter* hits;
  Counter* misses;
  Counter* admitted;
  Counter* evictions;
  Gauge* bytes;
  Counter* sample_restricted;
  CacheCounters() {
    MetricsRegistry& registry = MetricsRegistry::Global();
    hits = &registry.GetCounter("lm.cache.hits");
    misses = &registry.GetCounter("lm.cache.misses");
    admitted = &registry.GetCounter("lm.cache.admitted");
    evictions = &registry.GetCounter("lm.cache.evictions");
    bytes = &registry.GetGauge("lm.cache.bytes");
    sample_restricted = &registry.GetCounter("lm.sample_next_restricted");
  }
};

const CacheCounters& GetCacheCounters() {
  static const CacheCounters counters;
  return counters;
}

}  // namespace

// ---------------------------------------------------------------------------
// AllowListInterner

size_t AllowListInterner::VectorHash::operator()(
    const std::vector<TokenId>& ids) const {
  return static_cast<size_t>(HashTokenSpan(ids.data(), ids.size(), 0));
}

AllowListId AllowListInterner::Intern(std::vector<TokenId> ids) {
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  auto it = index_.find(ids);
  if (it != index_.end()) return it->second;
  AllowListId id = static_cast<AllowListId>(lists_.size());
  lists_.push_back(ids);
  index_.emplace(std::move(ids), id);
  return id;
}

AllowListId AllowListInterner::Find(
    const std::vector<TokenId>& sorted) const {
  auto it = index_.find(sorted);
  return it == index_.end() ? kNoAllowList : it->second;
}

// ---------------------------------------------------------------------------
// HiddenStateCache

size_t HiddenStateCache::KeyHash::operator()(const Key& key) const {
  return static_cast<size_t>(
      HashTokenSpan(key.ids.data(), key.len, 0xabcdef12u));
}

const std::vector<double>* HiddenStateCache::Find(const TokenId* window,
                                                  size_t len) {
  if (capacity_ == 0 || len > kMaxKeyTokens) return nullptr;
  Key key;
  key.len = static_cast<uint32_t>(len);
  std::copy(window, window + len, key.ids.begin());
  auto it = map_.find(key);
  if (it == map_.end()) {
    ++misses_;
    return nullptr;
  }
  ++hits_;
  return &it->second;
}

void HiddenStateCache::Insert(const TokenId* window, size_t len,
                              const std::vector<double>& hidden) {
  if (capacity_ == 0 || len > kMaxKeyTokens) return;
  if (map_.size() >= capacity_) map_.clear();  // wholesale epoch eviction
  Key key;
  key.len = static_cast<uint32_t>(len);
  std::copy(window, window + len, key.ids.begin());
  map_.emplace(key, hidden);
}

// ---------------------------------------------------------------------------
// DecodeCache

uint64_t DecodeCache::HashKey(const Key& key) {
  uint64_t h = HashTokenSpan(key.ctx.data(), key.ctx_len,
                             static_cast<uint64_t>(key.allow));
  h = MixStep(h, key.temp_bits);
  h = MixStep(h, key.ctx_len);
  return h;
}

size_t DecodeCache::TransientHash::operator()(
    const std::vector<TokenId>& ids) const {
  return static_cast<size_t>(HashTokenSpan(ids.data(), ids.size(), 0x7177u));
}

DecodeCache::DecodeCache(const DecodeCacheOptions& options)
    : options_(options) {
  // Slot numbers are uint32 with the top value reserved for the scratch
  // entry. The index grows with the admitted entries and the fingerprint
  // array stops at kMaxSeenKeys, so a large bound costs nothing up front.
  options_.capacity = std::clamp<size_t>(options_.capacity, 1, kMaxCapacity);
  index_.assign(kMinIndexPositions, 0);
  seen_.assign(std::bit_ceil(2 * std::min(options_.capacity, kMaxSeenKeys)),
               0);
}

DecodeCache::~DecodeCache() {
  if (bytes_ > 0) {
    GetCacheCounters().bytes->Add(-static_cast<double>(bytes_));
  }
}

bool DecodeCache::PackContext(const TokenSequence& context, size_t limit,
                              Key* key) {
  // Effective prefix = bos + context; the model reads its last `limit`
  // tokens. Replicate that window without materializing the prefix.
  size_t padded_size = context.size() + 1;
  size_t take = std::min(limit, padded_size);
  if (take > kMaxKeyTokens) return false;
  key->ctx_len = static_cast<uint32_t>(take);
  size_t start = padded_size - take;  // index into [bos, context...]
  for (size_t j = 0; j < take; ++j) {
    size_t idx = start + j;
    key->ctx[j] = idx == 0 ? Vocabulary::kBosId : context[idx - 1];
  }
  return true;
}

size_t DecodeCache::EntryBytes(const Entry& entry) const {
  return entry.cdf.capacity() * sizeof(double) + entry.alias.MemoryBytes();
}

void DecodeCache::Fill(const std::vector<double>& weights, bool keep_capacity,
                       Entry* entry) {
  const size_t before = EntryBytes(*entry);
  // A slot last used for a wide list would otherwise keep that buffer
  // behind every narrow list it holds later.
  const size_t n = weights.size();
  if (!keep_capacity && 2 * n < entry->cdf.capacity()) {
    std::vector<double>().swap(entry->cdf);
  }
  if (!keep_capacity && 2 * n < entry->alias.capacity()) {
    entry->alias = AliasTable();
  }
  // The cumulative table replays Rng::Categorical's left-to-right running
  // sum bit for bit; the alias table is the O(1) kernel. Build only what
  // the configured mode draws from.
  double cum = 0.0;
  if (options_.mode == DecodeMode::kExactReplay) {
    if (entry->cdf.capacity() < n) entry->cdf.clear();  // grow without a copy
    entry->cdf.resize(n);
    double* cdf = entry->cdf.data();
    for (size_t i = 0; i < n; ++i) {
      cum += weights[i];
      cdf[i] = cum;
    }
    entry->total = cum;
  } else {
    for (double w : weights) cum += w;
    entry->total = cum;
    // A zero total is drawn uniformly without the table (see Draw).
    if (entry->total > 0.0) entry->alias.Build(weights, entry->total);
  }
  const size_t after = EntryBytes(*entry);
  if (after != before) {
    bytes_ = bytes_ + after - before;
    GetCacheCounters().bytes->Add(static_cast<double>(after) -
                                  static_cast<double>(before));
  }
}

size_t DecodeCache::FindPosition(const Key& key, uint64_t hash) const {
  const size_t mask = index_.size() - 1;
  size_t pos = static_cast<size_t>(hash) & mask;
  for (;;) {
    const uint32_t member = index_[pos];
    if (member == 0) return pos;
    const Entry& entry = slots_[member - 1];
    if (entry.hash == hash && entry.key == key) return pos;
    pos = (pos + 1) & mask;
  }
}

void DecodeCache::EraseAt(size_t pos) {
  // Backward-shift deletion: a later member of the cluster moves into the
  // hole when the hole lies on its probe path (between its home position
  // and where it sits), which keeps every remaining key reachable.
  const size_t mask = index_.size() - 1;
  size_t hole = pos;
  for (size_t next = (pos + 1) & mask; index_[next] != 0;
       next = (next + 1) & mask) {
    const size_t home =
        static_cast<size_t>(slots_[index_[next] - 1].hash) & mask;
    if (((next - home) & mask) >= ((next - hole) & mask)) {
      index_[hole] = index_[next];
      hole = next;
    }
  }
  index_[hole] = 0;
}

void DecodeCache::GrowIndex() {
  // Doubling keeps the load at most one half; every slot is re-homed.
  index_.assign(2 * index_.size(), 0);
  const size_t mask = index_.size() - 1;
  for (size_t slot = 0; slot < slots_.size(); ++slot) {
    size_t pos = static_cast<size_t>(slots_[slot].hash) & mask;
    while (index_[pos] != 0) pos = (pos + 1) & mask;
    index_[pos] = static_cast<uint32_t>(slot + 1);
  }
}

DecodeCache::Entry& DecodeCache::Admit(const Key& key, uint64_t hash) {
  uint32_t slot;
  if (slots_.size() < options_.capacity) {
    if (2 * (slots_.size() + 1) > index_.size()) GrowIndex();
    slot = static_cast<uint32_t>(slots_.size());
    slots_.emplace_back();
    bytes_ += sizeof(Entry);
    GetCacheCounters().bytes->Add(static_cast<double>(sizeof(Entry)));
  } else {
    // Second-chance (clock) eviction: skip recently referenced entries
    // once, evict the first unreferenced one the hand reaches.
    for (;;) {
      Entry& candidate = slots_[clock_hand_];
      if (candidate.referenced) {
        candidate.referenced = 0;
        clock_hand_ = (clock_hand_ + 1) % slots_.size();
        continue;
      }
      slot = static_cast<uint32_t>(clock_hand_);
      clock_hand_ = (clock_hand_ + 1) % slots_.size();
      break;
    }
    const Entry& victim = slots_[slot];
    EraseAt(FindPosition(victim.key, victim.hash));
    ++stats_.evictions;
    GetCacheCounters().evictions->Increment();
  }
  Entry& entry = slots_[slot];
  entry.key = key;
  entry.hash = hash;
  entry.referenced = 0;
  index_[FindPosition(key, hash)] = slot + 1;
  return entry;
}

TokenId DecodeCache::Draw(const Entry& entry,
                          const std::vector<TokenId>& candidates,
                          Rng* rng) const {
  if (entry.total <= 0.0 || candidates.empty()) {
    // All-zero candidate mass: uniform over the allow-list, exactly like
    // LanguageModel::SampleNext's degradation path.
    if (!candidates.empty()) return candidates[rng->Index(candidates.size())];
    return Vocabulary::kEosId;
  }
  if (options_.mode == DecodeMode::kExactReplay) {
    assert(entry.cdf.size() == candidates.size());
    // target < cum_i selects the same bucket (and consumes the same single
    // uniform) as the linear scan in Rng::Categorical.
    double target = rng->Uniform() * entry.total;
    auto it =
        std::upper_bound(entry.cdf.begin(), entry.cdf.end(), target);
    size_t idx = it == entry.cdf.end()
                     ? entry.cdf.size() - 1  // numerical slack, as uncached
                     : static_cast<size_t>(it - entry.cdf.begin());
    return candidates[idx];
  }
  assert(entry.alias.size() == candidates.size());
  return candidates[entry.alias.Sample(rng)];
}

AllowListId DecodeCache::InternTransient(
    const std::vector<TokenId>& candidates) {
  auto it = transient_.find(candidates);
  if (it != transient_.end()) return it->second;
  AllowListId id =
      kTransientBase + static_cast<AllowListId>(transient_.size());
  if (id >= kNoAllowList) return kNoAllowList;  // namespace exhausted
  transient_.emplace(candidates, id);
  return id;
}

DecodeCache::ResolvedDist DecodeCache::ResolveRestricted(
    const LanguageModel& lm, const TokenSequence& context,
    const std::vector<TokenId>& candidates, AllowListId allow_id,
    double temperature, DecodeWorkspace* ws) {
  ResolvedDist dist;
  if (!options_.enabled || allow_id == kNoAllowList) return dist;
  Key key;
  if (!PackContext(context, lm.context_dependence(), &key)) return dist;
  key.allow = allow_id;
  uint64_t temp_bits;
  static_assert(sizeof(temp_bits) == sizeof(temperature));
  std::memcpy(&temp_bits, &temperature, sizeof(temp_bits));
  key.temp_bits = temp_bits;

  const uint64_t hash = HashKey(key);
  GetCacheCounters().sample_restricted->Increment();
  const size_t pos = FindPosition(key, hash);
  if (index_[pos] != 0) {
    const uint32_t slot = index_[pos] - 1;
    slots_[slot].referenced = 1;
    ++stats_.hits;
    GetCacheCounters().hits->Increment();
    dist.slot = slot;
    dist.cacheable = true;
    return dist;
  }
  ++stats_.misses;
  GetCacheCounters().misses->Increment();
  lm.NextTokenWeightsRestricted(context, candidates, ws, &ws->weights);
  ApplyTemperatureShaping(&ws->weights, temperature);
  dist.cacheable = true;
  // Admission on the second sighting: the first miss of a key only leaves
  // its fingerprint behind. A fingerprint collision admits a key early or
  // late, never wrongly: the index compares whole keys.
  const size_t seen_pos = static_cast<size_t>(hash >> 32) & (seen_.size() - 1);
  const uint32_t fingerprint = static_cast<uint32_t>(hash) | 1u;
  if (seen_[seen_pos] != fingerprint) {
    seen_[seen_pos] = fingerprint;
    Fill(ws->weights, /*keep_capacity=*/true, &scratch_);
    dist.slot = kScratchSlot;
    return dist;
  }
  ++stats_.admitted;
  GetCacheCounters().admitted->Increment();
  Entry& entry = Admit(key, hash);
  Fill(ws->weights, /*keep_capacity=*/false, &entry);
  dist.slot = static_cast<uint32_t>(&entry - slots_.data());
  return dist;
}

TokenId DecodeCache::DrawResolved(const ResolvedDist& dist,
                                  const std::vector<TokenId>& candidates,
                                  Rng* rng) const {
  assert(dist.cacheable);
  return Draw(EntryOf(dist), candidates, rng);
}

void DecodeCache::DrawResolvedMany(const ResolvedDist& dist,
                                   const std::vector<TokenId>& candidates,
                                   Rng* const* rngs, size_t count,
                                   TokenId* out,
                                   std::vector<size_t>* scratch) const {
  assert(dist.cacheable);
  const Entry& entry = EntryOf(dist);
  if (entry.total <= 0.0 || candidates.empty()) {
    // Zero candidate mass: Draw's uniform degradation path, per lane.
    for (size_t k = 0; k < count; ++k) {
      out[k] = candidates.empty()
                   ? Vocabulary::kEosId
                   : candidates[rngs[k]->Index(candidates.size())];
    }
    return;
  }
  if (options_.mode == DecodeMode::kExactReplay) {
    assert(entry.cdf.size() == candidates.size());
    // Uniform pass first (each lane's single stream advance, exactly as
    // Draw), then the shared-cdf binary searches back to back.
    if (scratch->size() < count) scratch->resize(count);
    size_t* idx = scratch->data();
    for (size_t k = 0; k < count; ++k) {
      double target = rngs[k]->Uniform() * entry.total;
      auto it = std::upper_bound(entry.cdf.begin(), entry.cdf.end(), target);
      idx[k] = it == entry.cdf.end()
                   ? entry.cdf.size() - 1  // numerical slack, as uncached
                   : static_cast<size_t>(it - entry.cdf.begin());
    }
    for (size_t k = 0; k < count; ++k) out[k] = candidates[idx[k]];
    return;
  }
  assert(entry.alias.size() == candidates.size());
  if (scratch->size() < count) scratch->resize(count);
  entry.alias.SampleMany(rngs, count, scratch->data());
  for (size_t k = 0; k < count; ++k) out[k] = candidates[(*scratch)[k]];
}

TokenId DecodeCache::SampleRestricted(const LanguageModel& lm,
                                      const TokenSequence& context,
                                      const std::vector<TokenId>& candidates,
                                      AllowListId allow_id, double temperature,
                                      Rng* rng, DecodeWorkspace* ws) {
  ResolvedDist dist = ResolveRestricted(lm, context, candidates, allow_id,
                                        temperature, ws);
  if (!dist.cacheable) {
    ++stats_.uncacheable;
    return lm.SampleNext(context, rng, temperature, &candidates, ws);
  }
  return DrawResolved(dist, candidates, rng);
}

}  // namespace greater
