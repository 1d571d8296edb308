#ifndef GREATER_LM_LANGUAGE_MODEL_H_
#define GREATER_LM_LANGUAGE_MODEL_H_

#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "text/vocabulary.h"

namespace greater {

/// Token sequence (already vocabulary-encoded, WITHOUT bos/eos — models add
/// those internally).
using TokenSequence = std::vector<TokenId>;

/// Reusable decode buffers (defined in lm/decode_cache.h). Passing one to
/// the scoring/sampling entry points below eliminates the per-token heap
/// allocations of the vector-returning legacy paths.
struct DecodeWorkspace;

/// Temperature shaping in place on unnormalized weights: p -> p^(1/T) for
/// T > 0, identity at T == 1 or T <= 0. Shared by the uncached sampling
/// path and the decode cache so both shape bitwise-identically.
void ApplyTemperatureShaping(std::vector<double>* weights,
                             double temperature);

/// Abstract autoregressive language model over a fixed vocabulary.
///
/// This is the repository's stand-in for the paper's GPT-2 backbone (see
/// DESIGN.md, substitutions): both concrete models key all statistics by
/// token id, so two categories that share a surface string share parameters
/// — the property the Data Semantic Enhancement System exists to exploit.
class LanguageModel {
 public:
  virtual ~LanguageModel() = default;

  /// Trains on encoded sentences. May be called once per model instance.
  virtual Status Fit(const std::vector<TokenSequence>& sequences) = 0;

  /// P(next token | context) over the full vocabulary. `context` is the
  /// generated prefix (bos is implied before it). Must sum to ~1.
  virtual std::vector<double> NextTokenDistribution(
      const TokenSequence& context) const = 0;

  /// Next-token weights restricted to `candidates`: out[i] is the weight of
  /// candidates[i], proportional to NextTokenDistribution(context) gathered
  /// at the same ids (ids outside the vocabulary get weight 0). This is the
  /// constrained-decoding hot path: backbones override it to skip the
  /// full-vocabulary work — O(h*|C|) logits in the neural model, sorted
  /// count runs merged against the list in the n-gram model — so the cost
  /// of sampling a value token scales with the column's vocabulary, not
  /// the table's.
  /// The base implementation computes the full distribution and gathers.
  ///
  /// Weights need not sum to 1; callers sample categorically, which
  /// normalizes implicitly. The n-gram override is bitwise-identical to
  /// the gather; the neural override renormalizes its softmax over the
  /// candidate set, which is exactly proportional in real arithmetic.
  std::vector<double> NextTokenDistributionRestricted(
      const TokenSequence& context,
      const std::vector<TokenId>& candidates) const;

  /// Allocation-aware core of NextTokenDistributionRestricted: fills
  /// `out` (resized to candidates.size()) with the restricted weights,
  /// reusing `ws` scratch buffers when given (nullable). This is the
  /// virtual the backbones override; steady-state calls with a warm
  /// workspace perform no heap allocation in the overrides.
  virtual void NextTokenWeightsRestricted(const TokenSequence& context,
                                          const std::vector<TokenId>& candidates,
                                          DecodeWorkspace* ws,
                                          std::vector<double>* out) const;

  /// Natural log of P(token | context), clamped below at log(1e-300) —
  /// the scoring primitive behind SequenceLogProb / Perplexity. The base
  /// implementation materializes the full distribution; backbones
  /// override it with a single-token path (n-gram: O(order) count
  /// lookups; neural: full softmax but zero allocation via `ws`).
  virtual double TokenLogProb(const TokenSequence& context, TokenId token,
                              DecodeWorkspace* ws) const;

  /// Number of trailing tokens of (bos + context) the next-token
  /// distribution can depend on: the decode cache keys on exactly this
  /// suffix. SIZE_MAX (the default) means "the whole context" — such
  /// models are uncacheable and the cache transparently bypasses itself.
  virtual size_t context_dependence() const { return SIZE_MAX; }

  /// Vocabulary size this model was built for.
  virtual size_t vocab_size() const = 0;

  /// True once Fit succeeded.
  virtual bool fitted() const = 0;

  /// Log probability (natural log) of a sequence incl. the implicit eos.
  /// The workspace overload reuses `ws` buffers across scored tokens.
  double SequenceLogProb(const TokenSequence& sequence) const;
  double SequenceLogProb(const TokenSequence& sequence,
                         DecodeWorkspace* ws) const;

  /// Perplexity over a corpus: exp(-total logprob / total tokens).
  double Perplexity(const std::vector<TokenSequence>& sequences) const;

  /// Samples the next token. `temperature` > 0 flattens (>1) or sharpens
  /// (<1) the distribution; `allowed`, when non-null, restricts sampling to
  /// those ids (constrained decoding — the synthesizer's validity grammar).
  /// Returns kEosId if the (possibly constrained) distribution is all-zero.
  /// The `ws` overload draws the same tokens from the same Rng stream but
  /// reuses workspace buffers on the restricted path (no per-token heap
  /// allocation once warm).
  TokenId SampleNext(const TokenSequence& context, Rng* rng,
                     double temperature = 1.0,
                     const std::vector<TokenId>* allowed = nullptr) const;
  TokenId SampleNext(const TokenSequence& context, Rng* rng,
                     double temperature, const std::vector<TokenId>* allowed,
                     DecodeWorkspace* ws) const;

  /// Greedy argmax next token under the same constraints.
  TokenId ArgmaxNext(const TokenSequence& context,
                     const std::vector<TokenId>* allowed = nullptr) const;

  /// Samples a full sequence starting from `prompt` until eos or
  /// `max_length` tokens total. The prompt is included in the result.
  TokenSequence SampleSequence(const TokenSequence& prompt, size_t max_length,
                               Rng* rng, double temperature = 1.0) const;
};

}  // namespace greater

#endif  // GREATER_LM_LANGUAGE_MODEL_H_
