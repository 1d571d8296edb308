#ifndef GREATER_LM_NGRAM_LM_H_
#define GREATER_LM_NGRAM_LM_H_

#include <array>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "lm/count_shard.h"
#include "lm/language_model.h"

namespace greater {

/// Interpolated back-off n-gram language model (Witten–Bell smoothing).
///
/// This is the default synthesis backbone: fast enough to run the paper's
/// full 8-trial evaluation sweeps while sharing GPT-2's critical property —
/// all statistics are keyed by token identity, so the repeated "1"s of
/// Fig. 2 pool their counts across unrelated columns and mislead the model
/// exactly the way the paper describes.
///
/// An optional *prior corpus* simulates pre-trained knowledge: prior
/// sequences contribute fractional counts, so tokens that occur in natural
/// prior text (e.g. "Male", "Chicago") start with better-calibrated
/// back-off statistics than never-seen invented names. This is what lets
/// the understandability-based transformation edge out the
/// differentiability-based one, mirroring the paper's in-context-learning
/// argument (Sec. 4.4.1).
class NGramLm : public LanguageModel {
 public:
  struct Options {
    /// Maximum n-gram order (context length + 1). 2..8. The default of 5
    /// is the minimum that lets a value prediction see the PREVIOUS
    /// column's value across the "<v> , <col> is" bridge (4 context
    /// tokens) — the channel through which cross-column dependence (and
    /// the Fig. 2 token ambiguity) flows.
    size_t order = 5;
    /// Weight applied to each prior-corpus occurrence (0 disables).
    double prior_weight = 0.0;
  };

  /// `vocab_size` fixes the distribution dimension; all token ids in the
  /// training data must be < vocab_size.
  NGramLm(size_t vocab_size, const Options& options);
  explicit NGramLm(size_t vocab_size) : NGramLm(vocab_size, Options()) {}

  /// Registers pre-training sequences (used with options.prior_weight > 0).
  /// Must be called before Fit.
  Status SetPriorCorpus(const std::vector<TokenSequence>& sequences);

  /// The one-chunk case of FitStreaming: counts `sequences` in place (no
  /// copy) on one shard and finalizes.
  Status Fit(const std::vector<TokenSequence>& sequences) override;

  /// Pull iterator for out-of-core fitting: each call returns the next
  /// chunk of flattened sequences, std::nullopt at end of input, or an
  /// error. Called from the caller's thread only.
  using SequenceChunkIterator =
      std::function<Result<std::optional<std::vector<TokenSequence>>>()>;

  /// Out-of-core Fit: drains `next_chunk`, fanning chunks over an internal
  /// ThreadPool onto `num_shards` CountShard accumulators (chunk i goes to
  /// shard i % num_shards), then folds shards in fixed shard-index order
  /// and finalizes. Shard counts are integers, so the resulting model is
  /// bitwise-identical to Fit on the concatenated chunks at ANY shard
  /// count. Peak memory is the count tables plus one in-flight wave of
  /// chunks. Fit and FitStreaming both emit lm.fit.shard_* metrics.
  Status FitStreaming(const SequenceChunkIterator& next_chunk,
                      size_t num_shards);

  std::vector<double> NextTokenDistribution(
      const TokenSequence& context) const override;

  /// Restricted path: Witten–Bell interpolation evaluated on the
  /// candidate set only, bitwise-identical to gathering
  /// NextTokenDistribution at the candidate ids. Candidates start from
  /// the unigram floor; per higher level, every candidate is scaled by
  /// (1 - lambda), then the context's sorted run is merged against the
  /// candidates: a linear merge, or a walk of the much shorter side with
  /// binary search into the other. Candidates that are not strictly
  /// ascending or not all in the vocabulary fall back to a binary search
  /// per candidate. Given a workspace, a list covering at least 1/8 of
  /// the vocabulary whose seen runs hold at least as many cells as the
  /// list runs the full-vocabulary walk in `ws->probs` and gathers.
  /// Allocation-free once `out` (and `ws->probs`) have capacity.
  void NextTokenWeightsRestricted(const TokenSequence& context,
                                  const std::vector<TokenId>& candidates,
                                  DecodeWorkspace* ws,
                                  std::vector<double>* out) const override;

  /// Single-token interpolation walk: one binary search per level instead
  /// of a V-sized distribution per scored token, bitwise-identical to the
  /// full-distribution gather.
  double TokenLogProb(const TokenSequence& context, TokenId token,
                      DecodeWorkspace* ws) const override;

  /// The model reads at most order-1 trailing tokens of bos + context.
  size_t context_dependence() const override { return options_.order - 1; }

  size_t vocab_size() const override { return vocab_size_; }
  bool fitted() const override { return fitted_; }

  const Options& options() const { return options_; }

  /// Persistence (artifact kind "greater.ngram_lm"). The frozen levels
  /// are already in sorted (context, token) order, so they are written as
  /// they lie: equal models serialize to equal bytes and a loaded model
  /// reproduces the saved model's distributions bit for bit. The prior
  /// corpus is not persisted — its fractional counts are already folded
  /// into the tables at Fit. The loader bounds every length field by the
  /// bytes left and rejects unsorted or duplicate contexts and tokens and
  /// non-finite or negative counts as kDataLoss. Loading allocates one
  /// double per token id (the unigram floor); pass `vocab_size_expected`
  /// (the encoder's vocabulary size) to reject a model of another size as
  /// kDataLoss before that allocation.
  std::string SerializeBinary() const;
  Status DeserializeBinary(
      std::string_view bytes,
      std::optional<size_t> vocab_size_expected = std::nullopt);
  Status Save(const std::string& path) const;
  Status Load(const std::string& path);

  /// Maximum supported n-gram order (Options::order is clamped to it).
  static constexpr size_t kMaxOrder = kNGramMaxOrder;

 private:
  /// One order level of the frozen model — every context of length
  /// `ctx_len` — in CSR form. Contexts are stored in ascending id order
  /// (the serialized order), each owning a run of (token, count) cells
  /// sorted by token; `index` is an open-addressed table mapping context
  /// ids to their context number. Immutable once built.
  struct Level {
    static constexpr size_t kNoContext = ~size_t{0};

    size_t ctx_len = 0;
    std::vector<TokenId> context_ids;  ///< context c: [c*ctx_len, +ctx_len)
    std::vector<double> totals;        ///< per context: total count mass
    std::vector<size_t> run_begin;     ///< per context + end sentinel
    std::vector<TokenId> tokens;       ///< per cell, ascending within a run
    std::vector<double> counts;        ///< per cell
    /// Per cell: lambda * count / total, the term the cell adds at its
    /// level of the interpolation (derived in Seal, never serialized).
    std::vector<double> masses;
    std::vector<uint32_t> index;       ///< slot -> context + 1 (0 = empty)

    size_t num_contexts() const { return totals.size(); }
    /// Starts context `ids` (ctx_len ids); its cells are the tokens/counts
    /// appended until the next StartContext or Seal.
    void StartContext(const TokenId* ids, double total);
    /// Closes the last run, derives the cell masses and builds the
    /// context index.
    void Seal();
    /// Witten–Bell weight of context c: total / (total + distinct).
    double Lambda(size_t c) const;
    /// Context number of `ids` (ctx_len ids), or kNoContext.
    size_t Find(const TokenId* ids) const;
  };

  /// One wave of chunks for the shard-counting core: at most one per
  /// shard, each readable until the next wave is pulled.
  using ChunkWave = std::vector<const std::vector<TokenSequence>*>;

  /// The shard-counting core behind Fit and FitStreaming: pulls waves of
  /// non-empty chunks (an empty wave ends input), counts wave position j
  /// on shard j, folds the shards in index order and finalizes.
  Status CountShards(size_t num_shards,
                     const std::function<Status(ChunkWave* wave)>& next_wave);

  /// Freezes the merged integer counts into the CSR levels. Each cell's
  /// double is built exactly as the historical node-map fit built it:
  /// prior-corpus mass first (prior_weight added once per prior
  /// occurrence), then the integer count applied as unit increments.
  void FinalizeFromCounts(CountShard* counts);

  /// The run of a seen context at one level >= 1: its sorted tokens,
  /// their frozen masses, and the level's weight 1 - lambda.
  struct SeenRun {
    const TokenId* tokens;
    const double* masses;
    size_t size;
    double keep;
  };
  using SeenRuns = std::array<SeenRun, kMaxOrder>;

  /// The interpolation walk shared by every evaluation: stages the last
  /// order-1 tokens of bos + context and collects the runs of the seen
  /// contexts of levels 1, 2, ... into `runs`, stopping at the first
  /// unseen one (longer ones are unseen too). Level 0 is folded into
  /// floor_; an unfitted model, or one without a level-0 context, collects
  /// nothing. Returns the count.
  size_t FindRuns(const TokenSequence& context, SeenRuns* runs) const;

  /// The full-vocabulary distribution over the found runs, starting from
  /// the floor, written into `dist`.
  void DenseWalk(const SeenRuns& runs, size_t count,
                 std::vector<double>* dist) const;

  /// The floor of a model of `vocab_size` tokens: uniform, then level
  /// 0's step (`unigram`) when fitted.
  static std::vector<double> BuildFloor(size_t vocab_size, bool fitted,
                                        const Level& unigram);

  size_t vocab_size_;
  Options options_;
  bool fitted_ = false;
  std::vector<Level> levels_;  // levels_[k] holds contexts of length k
  /// Per token: the distribution after the empty context, (1/V) * keep0 +
  /// mass0[t], computed with the walk's own expressions (uniform when
  /// unfitted or when level 0 has no context). Derived at construction,
  /// fit and load; never serialized.
  std::vector<double> floor_;
  std::vector<TokenSequence> prior_;
};

}  // namespace greater

#endif  // GREATER_LM_NGRAM_LM_H_
