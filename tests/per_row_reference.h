#ifndef GREATER_TESTS_PER_ROW_REFERENCE_H_
#define GREATER_TESTS_PER_ROW_REFERENCE_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/fault.h"
#include "common/rng.h"
#include "common/status.h"
#include "lm/decode_cache.h"
#include "synth/great_synthesizer.h"
#include "synth/sample_report.h"
#include "tabular/table.h"

namespace greater {

/// Test oracle for BatchDecodeEngine: the per-row constrained decoder.
/// One row at a time, one token at a time, straight through
/// LanguageModel::SampleNext or the DecodeCache — no lanes, no grouping.
/// The equivalence suites compare the engine against it at every chunk
/// size (batch_rows 1 included), on both backbones, cache off, on and in
/// alias mode, conditional and lenient. It reads the synthesizer's private
/// grammars through GreatSynthesizer's friend declaration.
class PerRowReferenceDecoder {
 public:
  explicit PerRowReferenceDecoder(const GreatSynthesizer& synth)
      : options_(synth.options_),
        encoder_(synth.encoder_.get()),
        lm_(synth.lm_.get()),
        observed_values_(synth.observed_values_),
        column_grammars_(synth.column_grammars_),
        free_grammar_(synth.free_grammar_) {
    if (options_.decode_cache.enabled) {
      ws_.cache = std::make_unique<DecodeCache>(options_.decode_cache);
    }
    ws_.decode.hidden_cache.set_capacity(
        options_.decode_cache.cache_hidden_states
            ? options_.decode_cache.hidden_capacity
            : 0);
  }

  /// The serial Sample contract: one DeriveSampleBase draw from `rng`, row
  /// i decoded from Rng(DeriveStreamSeed(base, i)), lenient exhaustions
  /// skipped, the first other failure returned with its row context.
  Result<Table> Sample(size_t n, Rng* rng, SampleReport* report = nullptr) {
    return SampleMany(n, nullptr, rng, report);
  }

  /// The serial SampleConditional contract (row i forces conditions row i).
  Result<Table> SampleConditional(const Table& conditions, Rng* rng,
                                  SampleReport* report = nullptr) {
    return SampleMany(conditions.num_rows(), &conditions, rng, report);
  }

 private:
  struct Workspace {
    std::vector<int> forced_index;
    std::vector<Value> forced_values;
    TokenSequence context;
    std::vector<char> emitted;
    std::vector<TokenId> allowed_names;
    DecodeWorkspace decode;
    std::unique_ptr<DecodeCache> cache;
  };
  using ValueGrammar = GreatSynthesizer::ValueGrammar;
  static constexpr size_t kMaxValueTokens = GreatSynthesizer::kMaxValueTokens;

  Result<Table> SampleMany(size_t n, const Table* conditions, Rng* rng,
                           SampleReport* report) {
    SampleReport stats;
    uint64_t base = n > 0 ? GreatSynthesizer::DeriveSampleBase(rng) : 0;
    Table out(encoder_->schema());
    std::map<std::string, Value> forced;
    Status failure = Status::OK();
    for (size_t i = 0; i < n && failure.ok(); ++i) {
      Rng row_rng(Rng::DeriveStreamSeed(base, i));
      const std::map<std::string, Value>* forced_ptr = nullptr;
      if (conditions != nullptr) {
        forced.clear();
        for (size_t c = 0; c < conditions->num_columns(); ++c) {
          forced[conditions->schema().field(c).name] = conditions->at(i, c);
        }
        forced_ptr = &forced;
      }
      Result<Row> row = SampleRow(&row_rng, forced_ptr, &stats);
      if (!row.ok()) {
        if (options_.policy == SamplePolicy::kLenient &&
            row.status().code() == StatusCode::kResourceExhausted) {
          continue;
        }
        failure = row.status().WithContext(
            std::string(conditions != nullptr ? "sampling conditioned row "
                                              : "sampling row ") +
            std::to_string(i + 1) + " of " + std::to_string(n));
        break;
      }
      GREATER_RETURN_NOT_OK(out.AppendRow(std::move(row).ValueOrDie()));
    }
    if (report != nullptr) report->Merge(stats);
    if (!failure.ok()) return failure;
    return out;
  }

  TokenId SampleToken(const TokenSequence& context,
                      const std::vector<TokenId>& allowed,
                      AllowListId allow_id, Rng* rng, Workspace* ws) const {
    if (ws->cache != nullptr) {
      return ws->cache->SampleRestricted(*lm_, context, allowed, allow_id,
                                         options_.temperature, rng,
                                         &ws->decode);
    }
    return lm_->SampleNext(context, rng, options_.temperature, &allowed,
                           &ws->decode);
  }

  Result<Row> SampleRow(Rng* rng, const std::map<std::string, Value>* forced,
                        SampleReport* stats) {
    Workspace* ws = &ws_;
    ++stats->rows_requested;
    // Injected per-row failure ("synth.sample_row"): accounted like a
    // natural exhaustion when it carries kResourceExhausted, so lenient
    // callers degrade gracefully and the report still reconciles.
    if (FaultRegistry::AnyArmed()) {
      Status fault = FaultRegistry::Global().Check("synth.sample_row");
      if (!fault.ok()) {
        ++stats->injected_faults;
        if (fault.code() == StatusCode::kResourceExhausted) {
          ++stats->rows_exhausted;
        }
        return fault;
      }
    }
    const auto& columns = encoder_->columns();
    const Schema& schema = encoder_->schema();

    // Resolve forced columns once.
    ws->forced_index.assign(columns.size(), -1);
    ws->forced_values.clear();
    std::vector<int>& forced_index = ws->forced_index;
    std::vector<Value>& forced_values = ws->forced_values;
    if (forced != nullptr) {
      for (const auto& [name, value] : *forced) {
        GREATER_ASSIGN_OR_RETURN(size_t idx, schema.FieldIndex(name));
        forced_index[idx] = static_cast<int>(forced_values.size());
        forced_values.push_back(value);
      }
    }

    Status last_error = Status::OK();
    for (size_t attempt = 0; attempt < options_.max_attempts_per_row;
         ++attempt) {
      ++stats->attempts;
      // In free-value mode the last attempt falls back to the tight grammar
      // so the Sample call cannot die on an unlucky row.
      bool constrain = options_.constrain_values_to_column ||
                       (options_.fallback_to_constrained &&
                        attempt + 1 == options_.max_attempts_per_row);
      if (constrain && !options_.constrain_values_to_column) {
        ++stats->fallback_grammar_uses;
      }
      TokenSequence& context = ws->context;
      context.clear();
      ws->emitted.assign(columns.size(), 0);
      std::vector<char>& emitted = ws->emitted;
      size_t remaining = columns.size();

      // Forced columns are written into the context first (in schema
      // order): they become the conditioning prefix.
      for (size_t c = 0; c < columns.size(); ++c) {
        if (forced_index[c] < 0) continue;
        if (remaining != columns.size()) {
          context.push_back(encoder_->comma_token());
        }
        context.push_back(columns[c].name_token);
        context.push_back(encoder_->is_token());
        std::string text = forced_values[static_cast<size_t>(forced_index[c])]
                               .ToDisplayString();
        for (TokenId id : encoder_->EncodeTextLine(text)) context.push_back(id);
        emitted[c] = 1;
        --remaining;
      }

      bool failed = false;
      while (remaining > 0 && !failed) {
        if (!context.empty()) context.push_back(encoder_->comma_token());
        // Choose the next column name among the remaining ones. Name tokens
        // were interned in schema order, so this list is strictly ascending
        // and takes the constrained decoder's no-copy fast path.
        std::vector<TokenId>& allowed_names = ws->allowed_names;
        allowed_names.clear();
        for (size_t c = 0; c < columns.size(); ++c) {
          if (!emitted[c]) allowed_names.push_back(columns[c].name_token);
        }
        // Name lists shrink as columns are emitted, so they are interned in
        // the cache's transient namespace (content-addressed, stable within
        // the worker) rather than the encoder's static registry.
        AllowListId names_id = ws->cache != nullptr
                                   ? ws->cache->InternTransient(allowed_names)
                                   : kNoAllowList;
        TokenId name_token =
            SampleToken(context, allowed_names, names_id, rng, ws);
        size_t col = columns.size();
        for (size_t c = 0; c < columns.size(); ++c) {
          if (!emitted[c] && columns[c].name_token == name_token) {
            col = c;
            break;
          }
        }
        if (col == columns.size()) {
          failed = true;
          break;
        }
        context.push_back(name_token);
        context.push_back(encoder_->is_token());

        // Value tokens: constrained to tokens observed in this column (or,
        // in free-value mode, any column), with the terminator admitted once
        // at least one value token was emitted. All three variants were
        // interned at Fit, strictly ascending, so every step is a no-copy
        // draw with an O(1) cache key.
        const ValueGrammar& grammar =
            constrain ? column_grammars_[col] : free_grammar_;
        bool last_column = (remaining == 1);
        size_t value_len = 0;
        bool closed = last_column;  // last column ends at eos
        while (value_len < kMaxValueTokens) {
          const std::vector<TokenId>* step_allowed = &grammar.values;
          AllowListId step_id = grammar.values_id;
          if (value_len > 0) {
            step_allowed =
                last_column ? &grammar.with_eos : &grammar.with_comma;
            step_id =
                last_column ? grammar.with_eos_id : grammar.with_comma_id;
          }
          TokenId next =
              SampleToken(context, *step_allowed, step_id, rng, ws);
          if (value_len > 0 && (next == encoder_->comma_token() ||
                                next == Vocabulary::kEosId)) {
            closed = true;
            break;
          }
          context.push_back(next);
          ++value_len;
        }
        if (value_len == 0 || (!closed && value_len >= kMaxValueTokens)) {
          failed = true;
          break;
        }
        emitted[col] = 1;
        --remaining;
      }
      if (failed) {
        ++stats->rejected_mid_row;
        last_error = Status::DataLoss("generation failed mid-row");
        continue;
      }

      Result<Row> decoded = encoder_->DecodeTokens(context);
      if (!decoded.ok()) {
        ++stats->rejected_decode_failure;
        last_error = decoded.status();
        continue;
      }
      Row row = std::move(decoded).ValueOrDie();

      if (options_.restrict_to_observed) {
        bool valid = true;
        for (size_t c = 0; c < columns.size(); ++c) {
          if (forced_index[c] >= 0) continue;
          if (observed_values_[c].set.count(row[c].ToDisplayString()) == 0) {
            if (attempt + 1 == options_.max_attempts_per_row &&
                options_.fallback_to_constrained) {
              // Last resort: snap the cell to a uniformly drawn observed
              // value so one stubborn multi-token recombination cannot fail
              // the whole Sample call. The draw indexes the sorted pool, so
              // it maps picks to values identically after a Save/Load
              // rebuild.
              const auto& pool = observed_values_[c].sorted;
              const std::string& snapped = pool[rng->Index(pool.size())];
              GREATER_ASSIGN_OR_RETURN(row[c],
                                       encoder_->ParseValue(c, snapped));
              ++stats->snapped_cells;
              continue;
            }
            valid = false;
            break;
          }
        }
        if (!valid) {
          ++stats->rejected_invalid_value;
          last_error = Status::DataLoss("generated value outside the observed "
                                        "category set");
          continue;
        }
      }
      // Forced values override whatever round-tripped through tokens (they
      // may contain words outside the vocabulary).
      for (size_t c = 0; c < columns.size(); ++c) {
        if (forced_index[c] >= 0) {
          row[c] = forced_values[static_cast<size_t>(forced_index[c])];
        }
      }
      ++stats->rows_emitted;
      return row;
    }
    ++stats->rows_exhausted;
    return Status::ResourceExhausted(
        "no valid row after " + std::to_string(options_.max_attempts_per_row) +
        " attempts; last error: " + last_error.ToString());
  }

  const GreatSynthesizer::Options& options_;
  const TextualEncoder* encoder_;
  const LanguageModel* lm_;
  const std::vector<GreatSynthesizer::ObservedColumn>& observed_values_;
  const std::vector<ValueGrammar>& column_grammars_;
  const ValueGrammar& free_grammar_;
  Workspace ws_;
};

}  // namespace greater

#endif  // GREATER_TESTS_PER_ROW_REFERENCE_H_
