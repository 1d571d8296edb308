#ifndef GREATER_LM_ALIAS_TABLE_H_
#define GREATER_LM_ALIAS_TABLE_H_

#include <cstdint>
#include <vector>

#include "common/rng.h"

namespace greater {

/// Vose alias table: O(K) construction from an unnormalized non-negative
/// weight vector, O(1) categorical draws thereafter — the sampling kernel
/// behind the decode cache's kAlias mode (see DESIGN.md, "Decode cache &
/// sampling kernels").
///
/// A draw consumes one uniform index plus one uniform real from the Rng,
/// which is a DIFFERENT consumption pattern than Rng::Categorical's single
/// uniform real. The sampled distribution is identical, but the token
/// stream produced from a shared seed is not — callers that need bitwise
/// replay of the linear-scan path must draw through a cumulative table
/// instead (DecodeMode::kExactReplay).
class AliasTable {
 public:
  AliasTable() = default;

  /// Builds the table from `weights` whose left-to-right sum is `total`.
  /// Requires total > 0 and every weight >= 0 (zero-weight buckets are
  /// valid and are never drawn). Rebuilding an existing table is allowed.
  void Build(const std::vector<double>& weights, double total);

  /// O(1) draw of an index in [0, size()). Requires a built table.
  size_t Sample(Rng* rng) const {
    size_t i = rng->Index(prob_.size());
    return rng->Uniform() < prob_[i] ? i : static_cast<size_t>(alias_[i]);
  }

  /// Vectorized draw over a group of independent lanes: out[k] receives
  /// exactly the index Sample(rngs[k]) would return, and rngs[k] advances
  /// identically (one Index, then one Uniform — streams are never
  /// interleaved, so per-lane bitwise replay holds at any group size).
  /// Splitting the draw into a bucket pass and an acceptance pass replaces
  /// the per-draw rng/table interleave with two sequential sweeps over
  /// prob_/alias_, which is what lets a batched lane group amortize the
  /// table walk.
  void SampleMany(Rng* const* rngs, size_t count, size_t* out) const {
    const size_t size = prob_.size();
    for (size_t k = 0; k < count; ++k) {
      out[k] = rngs[k]->Index(size);
    }
    for (size_t k = 0; k < count; ++k) {
      const size_t i = out[k];
      if (!(rngs[k]->Uniform() < prob_[i])) {
        out[k] = static_cast<size_t>(alias_[i]);
      }
    }
  }

  size_t size() const { return prob_.size(); }
  bool empty() const { return prob_.empty(); }
  /// Buckets the columns can hold without reallocating.
  size_t capacity() const { return prob_.capacity(); }

  /// Heap footprint of the two columns, for cache byte accounting.
  size_t MemoryBytes() const {
    return prob_.capacity() * sizeof(double) +
           alias_.capacity() * sizeof(uint32_t);
  }

 private:
  std::vector<double> prob_;     // acceptance threshold per bucket
  std::vector<uint32_t> alias_;  // redirect target per bucket
};

}  // namespace greater

#endif  // GREATER_LM_ALIAS_TABLE_H_
