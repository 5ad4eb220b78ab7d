#ifndef DIMQR_EVAL_HARNESS_H_
#define DIMQR_EVAL_HARNESS_H_

#include <functional>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "dimeval/benchmark.h"
#include "eval/journal.h"
#include "eval/metrics.h"
#include "linking/annotator.h"
#include "lm/model_api.h"

/// \file harness.h
/// The DimEval evaluation harness: runs a model over benchmark test splits
/// and aggregates Table VII / Table VIII style results.

namespace dimqr::eval {

/// \brief A quantity extractor: task instance -> predicted quantities.
using Extractor = std::function<std::vector<lm::ExtractedQuantity>(
    const dimeval::TaskInstance&)>;

/// \brief Extractor backed by DimKS (the DimPerc pipeline's extraction
/// path; see EXPERIMENTS.md).
Extractor AnnotatorExtractor(const linking::DimKsAnnotator& annotator);

/// \brief Extractor that calls Model::ExtractQuantities.
Extractor ModelExtractor(lm::Model& model);

/// \brief Gold quantities of an extraction instance as ExtractedQuantity.
std::vector<lm::ExtractedQuantity> GoldOf(const dimeval::TaskInstance& inst);

/// \brief Evaluates a model on one choice task's instances.
///
/// Instances are fanned out over the global parallel pool when the model
/// reports SupportsParallelEval(); each instance writes an index-addressed
/// outcome slot that is folded serially in index order, so the metrics are
/// identical at every `DIMQR_THREADS` setting.
///
/// Failure handling: a decline whose ChoiceAnswer::failure is retryable
/// (the resilience layer gave up on a transient fault) is scored like a
/// model decline and counted in `declined_after_retry`. A *permanent*
/// backend failure marks the whole task `incomplete` and cancels the
/// remaining instances cooperatively (CancelMode::kCancelOnPermanentError)
/// — an incomplete task's counts are partial diagnostics, never table
/// numbers. Note this function does NOT wrap `model` in the resilience
/// layer; callers that want retries pass a lm::ResilientModel (as
/// EvaluateOnDimEval does automatically).
ChoiceMetrics EvaluateChoiceTask(
    lm::Model& model, const std::vector<const dimeval::TaskInstance*>& tests);

/// \brief Evaluates an extractor over extraction instances.
///
/// Pass `parallel_safe = true` only if the extractor may be invoked
/// concurrently from several threads (true for AnnotatorExtractor, and for
/// ModelExtractor over a model with SupportsParallelEval()); otherwise the
/// instances run serially on the calling thread.
ExtractionMetrics EvaluateExtraction(
    const Extractor& extractor,
    const std::vector<const dimeval::TaskInstance*>& tests,
    bool parallel_safe = false);

/// \brief One model's full Table VII row.
struct DimEvalRow {
  std::string model;
  /// QE/VE/UE F1 (negative = not evaluated).
  double qe_f1 = -1.0, ve_f1 = -1.0, ue_f1 = -1.0;
  /// The model-backed extraction path failed permanently at least once;
  /// the QE/VE/UE cells are unusable (tables print "inc").
  bool extraction_incomplete = false;
  /// Per choice task: metrics keyed by task key.
  std::map<std::string, ChoiceMetrics> choice;
};

/// \brief The six choice tasks in the fixed order EvaluateOnDimEval
/// evaluates them.
std::span<const char* const> DimEvalChoiceTasks();

/// \brief Runs a model over all DimEval test splits. When `extractor` is
/// provided the extraction row is evaluated through it; otherwise through
/// Model::ExtractQuantities (which may be empty). A provided extractor must
/// be safe for concurrent invocation — the row is evaluated in parallel
/// when `DIMQR_THREADS` > 1 (results are bit-identical regardless).
///
/// Resilience: unless `model` already is one, it is wrapped in a
/// lm::ResilientModel (default policies) for the duration of the row, so a
/// flaky backend gets bounded retries and permanent failures degrade to
/// incomplete task markers instead of aborting the run.
///
/// Checkpointing: with a non-null `journal`, each completed task is
/// looked up first (a journaled record is replayed without touching the
/// model) and recorded after evaluation — see eval/journal.h. Incomplete
/// tasks are never journaled, so a resume retries them.
DimEvalRow EvaluateOnDimEval(lm::Model& model,
                             const dimeval::DimEvalBenchmark& bench,
                             const Extractor* extractor = nullptr,
                             EvalJournal* journal = nullptr);

/// \brief Category aggregates for Table VIII: macro precision/F1 over the
/// tasks of each of the three categories. Extraction contributes its QE
/// pair-level counts to basic perception. Incomplete tasks (permanent
/// backend failure) are excluded from the macro average — their counts are
/// diagnostics, not results.
struct CategoryMetrics {
  double precision = 0.0;
  double f1 = 0.0;
};
std::map<dimeval::TaskCategory, CategoryMetrics> AggregateByCategory(
    const DimEvalRow& row);

}  // namespace dimqr::eval

#endif  // DIMQR_EVAL_HARNESS_H_
