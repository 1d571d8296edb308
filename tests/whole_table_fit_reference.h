#ifndef GREATER_TESTS_WHOLE_TABLE_FIT_REFERENCE_H_
#define GREATER_TESTS_WHOLE_TABLE_FIT_REFERENCE_H_

#include <algorithm>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/fault.h"
#include "common/rng.h"
#include "common/status.h"
#include "lm/neural_lm.h"
#include "lm/ngram_lm.h"
#include "synth/great_synthesizer.h"
#include "synth/textual_encoder.h"
#include "tabular/table.h"

namespace greater {

/// Test oracle for GreatSynthesizer's fitting core: the whole-table fit
/// that Fit and FitStreaming now share a chunked core with. It builds the
/// encoder and the observed-value pools from every row of the
/// materialized table, encodes the table in one EncodeTable call,
/// subsamples the whole corpus, and hands it to the backbone's Fit. The
/// equivalence suites compare both public entry points against it
/// (serialized bytes and sampled rows) for both backbones, with a prior
/// corpus and with max_training_sequences subsampling. It writes the
/// synthesizer's private state through GreatSynthesizer's friend
/// declaration.
class WholeTableFitReference {
 public:
  /// Fits the unfitted `synth` on `train`, consuming `rng` exactly as the
  /// whole-table fit did.
  static Status Fit(GreatSynthesizer* synth, const Table& train, Rng* rng) {
    using Backbone = GreatSynthesizer::Backbone;
    const GreatSynthesizer::Options& options = synth->options_;
    if (synth->fitted()) {
      return Status::FailedPrecondition("GreatSynthesizer already fitted");
    }
    if (train.num_rows() == 0) {
      return Status::Invalid("cannot fit on an empty table");
    }
    GREATER_FAULT_POINT("lm.fit");
    GREATER_ASSIGN_OR_RETURN(
        TextualEncoder encoder,
        TextualEncoder::Build(train, options.encoder, options.prior_corpus));
    synth->encoder_ = std::make_unique<TextualEncoder>(std::move(encoder));

    GREATER_ASSIGN_OR_RETURN(std::vector<TokenSequence> sequences,
                             synth->encoder_->EncodeTable(train, rng));
    if (options.max_training_sequences > 0 &&
        sequences.size() > options.max_training_sequences) {
      rng->Shuffle(&sequences);
      sequences.resize(options.max_training_sequences);
    }

    std::vector<TokenSequence> prior_sequences;
    bool use_prior =
        options.prior_weight > 0.0 && !options.prior_corpus.empty();
    if (use_prior) {
      prior_sequences.reserve(options.prior_corpus.size());
      for (const auto& line : options.prior_corpus) {
        prior_sequences.push_back(synth->encoder_->EncodeTextLine(line));
      }
    }

    size_t vocab_size = synth->encoder_->vocab().size();
    switch (options.backbone) {
      case Backbone::kNGram: {
        NGramLm::Options lm_options = options.ngram;
        if (use_prior) lm_options.prior_weight = options.prior_weight;
        auto lm = std::make_unique<NGramLm>(vocab_size, lm_options);
        if (use_prior) {
          GREATER_RETURN_NOT_OK(lm->SetPriorCorpus(prior_sequences));
        }
        GREATER_RETURN_NOT_OK(lm->Fit(sequences));
        synth->lm_ = std::move(lm);
        break;
      }
      case Backbone::kNeural: {
        NeuralLm::Options lm_options = options.neural;
        lm_options.num_threads =
            std::max(lm_options.num_threads, options.num_threads);
        auto lm = std::make_unique<NeuralLm>(vocab_size, lm_options);
        if (use_prior) {
          GREATER_RETURN_NOT_OK(lm->SetPriorCorpus(prior_sequences));
        }
        GREATER_RETURN_NOT_OK(lm->Fit(sequences));
        synth->lm_ = std::move(lm);
        break;
      }
    }

    synth->observed_values_.clear();
    synth->observed_values_.resize(train.num_columns());
    for (size_t c = 0; c < train.num_columns(); ++c) {
      for (size_t r = 0; r < train.num_rows(); ++r) {
        synth->observed_values_[c].Insert(train.at(r, c).ToDisplayString());
      }
      synth->observed_values_[c].SortPool();
    }
    synth->BuildGrammars();
    return Status::OK();
  }
};

}  // namespace greater

#endif  // GREATER_TESTS_WHOLE_TABLE_FIT_REFERENCE_H_
