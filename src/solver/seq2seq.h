#ifndef DIMQR_SOLVER_SEQ2SEQ_H_
#define DIMQR_SOLVER_SEQ2SEQ_H_

#include <memory>
#include <string>
#include <vector>

#include "core/rng.h"
#include "core/status.h"
#include "lm/model_api.h"
#include "lm/prefix_cache.h"
#include "lm/transformer.h"
#include "lm/vocab.h"
#include "mwp/tokenization.h"

/// \file seq2seq.h
/// The trainable model behind DimPerc and the LLaMA_IFT baseline.
///
/// Sequences follow the paper's output formats:
///  - dimension perception (Section IV-D): y = "<bos> R <sep> A <eos>"
///    where R is the rule-generated chain of thought and A the answer;
///  - quantitative reasoning (Section V-B4): "we first generate the
///    solution equation and then provide the corresponding answer",
///    y = "<bos> E <sep> A <eos>".
/// Both become  <bos> INPUT <sep> MIDDLE <sep> ANSWER <eos>  with loss on
/// everything after the first <sep> (Eq. 3). Tokenization of numbers is
/// switchable between regular and digit ("equation tokenization",
/// Section V-B3) for the Fig. 7 ablation.

namespace dimqr::solver {

/// \brief One training pair.
struct SeqExample {
  std::string input;    ///< Problem/prompt text.
  std::string middle;   ///< Reasoning chain R, or solution equation E.
  std::string answer;   ///< Final answer A ("b", "450", ...).
  /// When set, `middle` is an equation and is tokenized/decoded through
  /// the equation tokenizer; otherwise it is plain text.
  bool middle_is_equation = false;
};

/// \brief The model's parsed generation.
struct SeqOutput {
  std::string middle;
  std::string answer;
};

/// \brief Model and training knobs.
struct Seq2SeqConfig {
  lm::TransformerConfig arch;  ///< vocab_size is filled during Create.
  mwp::TokenizationMode tokenization = mwp::TokenizationMode::kRegular;
  double learning_rate = 1.5e-3;
  int batch_size = 8;
  int max_generated_tokens = 56;
  int vocab_min_count = 1;
  std::size_t vocab_max_size = 6000;
  std::uint64_t seed = 20240131;
};

/// \brief A trainable seq2seq wrapper over the micro transformer,
/// implementing the harness Model interface.
class Seq2SeqModel : public lm::Model {
 public:
  /// \brief Builds vocabulary from `train` (plus `vocab_extra`, which
  /// contributes tokens but is not trained on) and initializes the model.
  /// Training examples are retained for TrainEpochs/TrainSteps.
  static dimqr::Result<std::unique_ptr<Seq2SeqModel>> Create(
      std::string name, std::vector<SeqExample> train,
      const Seq2SeqConfig& config,
      const std::vector<SeqExample>& vocab_extra = {});

  /// \brief Adds this model to a snapshot as sections "<prefix>/meta",
  /// "<prefix>/vocab", "<prefix>/transformer" (name, config, vocabulary,
  /// weights + optimizer state; the retained training set is NOT packed).
  dimqr::Status WriteSnapshot(snapshot::SnapshotWriter& writer,
                              std::string_view prefix) const;

  /// \brief Loads a model packed by WriteSnapshot under `prefix`. The
  /// vocabulary and weights alias the mapping zero-copy (the snapshot is
  /// kept alive by both). The training set is empty — call
  /// ReplaceTrainingSet before any Train* method.
  static dimqr::Result<std::unique_ptr<Seq2SeqModel>> FromSnapshot(
      std::shared_ptr<const snapshot::Snapshot> snap, std::string_view prefix);

  /// \brief Swaps the retained training set (vocabulary and weights are
  /// kept) — the continued-fine-tuning path: train on DimEval, then
  /// ReplaceTrainingSet(MWP pairs) and keep training (Section V-B1).
  dimqr::Status ReplaceTrainingSet(std::vector<SeqExample> train);

  /// \brief Trains full passes over the retained examples (shuffled
  /// deterministically per epoch). Returns the mean loss of the last epoch.
  dimqr::Result<double> TrainEpochs(int epochs);

  /// \brief Trains exactly `n_batches` mini-batches, continuing the cycle
  /// across calls (for the Fig. 7 training-step curves). Returns mean loss.
  dimqr::Result<double> TrainSteps(int n_batches);

  /// \brief Generates middle/answer for an input text. Decodes through the
  /// inference fast path: the prompt is batch-prefilled into the calling
  /// thread's DecodeState arena, seeded from this model's prompt-prefix KV
  /// cache when an evaluated instance shares its instruction stem with a
  /// recent one. Cache hits are bit-identical to cold decodes, so results
  /// never depend on evaluation order or thread count.
  dimqr::Result<SeqOutput> Generate(const std::string& input,
                                    bool middle_is_equation) const;

  /// \brief Toggles the prompt-prefix KV cache for this model (defaults to
  /// lm::PrefixCache::Enabled(), i.e. on unless DIMQR_PREFIX_CACHE=0).
  /// Exists for A/B benchmarks and equivalence tests.
  void set_prefix_cache_enabled(bool enabled) {
    use_prefix_cache_ = enabled;
  }

  /// Cumulative prefix-cache counters (lookups/hits/forked tokens).
  lm::PrefixCache::Stats prefix_cache_stats() const {
    return prefix_cache_.stats();
  }

  // lm::Model interface -----------------------------------------------
  const std::string& name() const override { return name_; }
  /// Greedy-decodes and parses a choice letter; -1 when none was produced.
  lm::ChoiceAnswer AnswerChoice(const lm::ChoiceQuestion& question) override;
  /// Greedy-decodes and returns the middle part (the equation for MWP
  /// tasks); empty on failure.
  std::string AnswerText(const lm::TextQuestion& question) override;
  /// Answering only calls the const Generate path (mutable state is touched
  /// solely by the Train* methods), so concurrent evaluation is safe.
  bool SupportsParallelEval() const override { return true; }

  const lm::Vocab& vocab() const { return vocab_; }
  std::size_t train_size() const { return train_.size(); }
  std::int64_t steps_taken() const { return steps_; }

  /// \brief The training sequence Train* feeds the transformer:
  /// "<bos> input <sep> middle <sep> answer <eos>", with loss on every
  /// token after the first <sep>.
  lm::LmExample EncodeExample(const SeqExample& example) const;

 private:
  Seq2SeqModel() = default;

  std::vector<std::string> TokenizeInput(const std::string& text) const;
  std::vector<std::string> TokenizeMiddle(const std::string& text,
                                          bool is_equation) const;

  std::string name_;
  Seq2SeqConfig config_;
  lm::Vocab vocab_;
  std::unique_ptr<lm::Transformer> model_;
  /// Prompt-prefix KV snapshots, shared across the eval fan-out threads
  /// (lock-striped internally). Cleared by every Train* call — snapshots
  /// are only valid for the weights that produced them.
  mutable lm::PrefixCache prefix_cache_;
  bool use_prefix_cache_ = lm::PrefixCache::Enabled();
  std::vector<SeqExample> train_;
  std::vector<std::size_t> order_;   ///< Shuffled training order.
  std::size_t cursor_ = 0;           ///< Position in `order_`.
  std::int64_t steps_ = 0;
  dimqr::Rng shuffle_rng_{20240131};
};

}  // namespace dimqr::solver

#endif  // DIMQR_SOLVER_SEQ2SEQ_H_
