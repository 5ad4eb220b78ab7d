#include "eval/harness.h"

#include <cstdio>
#include <optional>

#include "core/parallel.h"
#include "lm/mock_llm.h"
#include "lm/resilient_model.h"

namespace dimqr::eval {
namespace {

using namespace lm::tasks;

}  // namespace

std::vector<lm::ExtractedQuantity> GoldOf(const dimeval::TaskInstance& inst) {
  std::vector<lm::ExtractedQuantity> out;
  for (const dimeval::GoldQuantity& g : inst.gold_quantities) {
    out.push_back({g.value_text, g.unit_text});
  }
  return out;
}

Extractor AnnotatorExtractor(const linking::DimKsAnnotator& annotator) {
  return [&annotator](const dimeval::TaskInstance& inst) {
    std::vector<lm::ExtractedQuantity> out;
    for (const linking::QuantityAnnotation& ann :
         annotator.Annotate(inst.source_text)) {
      lm::ExtractedQuantity q;
      q.value = std::string(ann.number.TextIn(inst.source_text));
      q.unit = ann.unit_text;
      out.push_back(std::move(q));
    }
    return out;
  };
}

Extractor ModelExtractor(lm::Model& model) {
  return [&model](const dimeval::TaskInstance& inst) {
    lm::ExtractionQuestion question;
    question.text = inst.source_text;
    question.gold = GoldOf(inst);
    question.instance_seed = inst.instance_seed;
    return model.ExtractQuantities(question);
  };
}

namespace {

/// Per-instance outcome slots for EvaluateChoiceTask. Index-addressed and
/// folded serially in index order, so the fold never depends on which
/// thread ran which instance. kSkipped marks instances a cancelled chunk
/// never ran.
enum ChoiceOutcome : std::uint8_t {
  kSkipped = 0,
  kCorrect,
  kWrong,
  kDeclined,
  kDeclinedAfterRetry,
  kFailedPermanently,
};

}  // namespace

ChoiceMetrics EvaluateChoiceTask(
    lm::Model& model,
    const std::vector<const dimeval::TaskInstance*>& tests) {
  const auto n = static_cast<std::int64_t>(tests.size());
  // A model that is not parallel-safe is evaluated in one chunk, which the
  // pool runs serially on the calling thread. Outcomes land in
  // index-addressed slots either way, so the fold below is identical.
  const std::int64_t grain = model.SupportsParallelEval() ? 0 : n;
  std::vector<std::uint8_t> outcome(tests.size(), kSkipped);
  Status status = ParallelFor(
      n,
      [&](std::int64_t begin, std::int64_t end, int) -> Status {
        for (std::int64_t i = begin; i < end; ++i) {
          const auto slot = static_cast<std::size_t>(i);
          const dimeval::TaskInstance* inst = tests[slot];
          lm::ChoiceAnswer answer =
              model.AnswerChoice(inst->ToChoiceQuestion());
          if (answer.answered()) {
            outcome[slot] =
                answer.index == inst->gold_index ? kCorrect : kWrong;
          } else if (answer.failure == StatusCode::kOk) {
            outcome[slot] = kDeclined;
          } else if (IsRetryable(answer.failure)) {
            // The resilience layer exhausted its retries: a degraded
            // decline, scored like any other decline but counted apart.
            outcome[slot] = kDeclinedAfterRetry;
          } else {
            // Permanent backend failure: the task cannot complete, so fail
            // the chunk and let cancellation skip the doomed remainder.
            outcome[slot] = kFailedPermanently;
            return Status::Internal("backend failed permanently on " +
                                    inst->task);
          }
        }
        return Status::OK();
      },
      grain, CancelMode::kCancelOnPermanentError);

  ChoiceMetrics metrics;
  for (std::uint8_t slot : outcome) {
    if (slot == kSkipped) continue;
    ++metrics.total;
    switch (slot) {
      case kCorrect:
        ++metrics.answered;
        ++metrics.correct;
        break;
      case kWrong:
        ++metrics.answered;
        break;
      case kDeclinedAfterRetry:
        ++metrics.declined_after_retry;
        break;
      case kFailedPermanently:
        ++metrics.failed;
        break;
      default:
        break;
    }
  }
  // Any permanent failure (or an exception escaping the model, demoted to
  // kInternal at the pool boundary) marks the task incomplete. This flag is
  // deterministic — per-instance failure decisions are — even though the
  // partial counts above depend on how far cancellation let the loop get.
  metrics.incomplete = !status.ok();
  return metrics;
}

ExtractionMetrics EvaluateExtraction(
    const Extractor& extractor,
    const std::vector<const dimeval::TaskInstance*>& tests,
    bool parallel_safe) {
  const auto n = static_cast<std::int64_t>(tests.size());
  const std::int64_t grain = parallel_safe ? 0 : n;
  Result<ExtractionMetrics> result = ParallelMapReduce<ExtractionMetrics>(
      n, ExtractionMetrics{},
      [&](std::int64_t begin, std::int64_t end,
          int) -> Result<ExtractionMetrics> {
        ExtractionMetrics partial;
        for (std::int64_t i = begin; i < end; ++i) {
          const dimeval::TaskInstance& inst =
              *tests[static_cast<std::size_t>(i)];
          std::vector<lm::ExtractedQuantity> predicted = extractor(inst);
          ScoreExtraction(predicted, GoldOf(inst), partial);
        }
        return partial;
      },
      [](ExtractionMetrics& acc, ExtractionMetrics&& partial) {
        acc += partial;
      },
      grain);
  return result.ValueOrDie();
}

std::span<const char* const> DimEvalChoiceTasks() {
  static const char* const kTasks[] = {
      kQuantityKindMatch,   kComparableAnalysis, kDimensionPrediction,
      kDimensionArithmetic, kMagnitudeComparison, kUnitConversion};
  return kTasks;
}

namespace {

/// Applies extraction counts (measured or journaled) to a row's QE/VE/UE
/// cells. "-" rows: a model with no extraction path produced no
/// predictions at all; left as not-evaluated rather than zero.
void ApplyExtractionToRow(const ExtractionMetrics& metrics, DimEvalRow& row) {
  if (metrics.qe.true_positive + metrics.qe.false_positive > 0) {
    row.qe_f1 = metrics.qe.F1();
    row.ve_f1 = metrics.ve.F1();
    row.ue_f1 = metrics.ue.F1();
  }
}

/// Journal write failures are warnings, not fatal: the evaluation result
/// in hand is still good, only resumability degrades.
void WarnJournal(const Status& status) {
  if (!status.ok()) {
    std::fprintf(stderr, "dimqr: journal write failed: %s\n",
                 status.ToString().c_str());
  }
}

}  // namespace

DimEvalRow EvaluateOnDimEval(lm::Model& model,
                             const dimeval::DimEvalBenchmark& bench,
                             const Extractor* extractor,
                             EvalJournal* journal) {
  // Every row runs behind the resilience layer: transient backend faults
  // are retried, permanent ones degrade to incomplete markers. Skip the
  // wrap when the caller already provided a ResilientModel, so faults are
  // not evaluated (and retried) twice per call.
  auto* shield = dynamic_cast<lm::ResilientModel*>(&model);
  std::optional<lm::ResilientModel> local_shield;
  if (shield == nullptr) {
    local_shield.emplace(model);
    shield = &*local_shield;
  }

  DimEvalRow row;
  row.model = model.name();
  for (const char* task : DimEvalChoiceTasks()) {
    ChoiceMetrics metrics;
    if (journal != nullptr &&
        journal->LookupChoice(row.model, task, &metrics)) {
      row.choice[task] = metrics;
      continue;
    }
    metrics = EvaluateChoiceTask(*shield, bench.TestOf(task));
    if (journal != nullptr && !metrics.incomplete) {
      WarnJournal(journal->RecordChoice(row.model, task, metrics));
    }
    row.choice[task] = metrics;
  }

  std::vector<const dimeval::TaskInstance*> extraction =
      bench.TestOf(kQuantityExtraction);
  if (!extraction.empty()) {
    ExtractionMetrics metrics;
    if (journal != nullptr &&
        journal->LookupExtraction(row.model, kQuantityExtraction, &metrics)) {
      ApplyExtractionToRow(metrics, row);
      return row;
    }
    Extractor model_extractor = ModelExtractor(*shield);
    const Extractor& chosen =
        extractor != nullptr ? *extractor : model_extractor;
    // A caller-provided extractor must be safe for concurrent invocation
    // (both in-tree factories are); the model path defers to its own flag.
    bool parallel_safe =
        extractor != nullptr || model.SupportsParallelEval();
    const std::uint64_t permanent_before =
        shield->stats().permanent_failures.load(std::memory_order_relaxed);
    ExtractionMetrics measured =
        EvaluateExtraction(chosen, extraction, parallel_safe);
    // The extractor signature cannot report failures, but the resilience
    // layer counts them: any permanent failure during the model-backed path
    // poisons the counts (failed instances scored as empty predictions), so
    // mark the cells incomplete instead. A caller-provided extractor never
    // goes through the model, hence never through a fault point.
    if (extractor == nullptr &&
        shield->stats().permanent_failures.load(std::memory_order_relaxed) >
            permanent_before) {
      row.extraction_incomplete = true;
    } else {
      ApplyExtractionToRow(measured, row);
      if (journal != nullptr) {
        WarnJournal(journal->RecordExtraction(row.model, kQuantityExtraction,
                                              measured));
      }
    }
  }
  return row;
}

std::map<dimeval::TaskCategory, CategoryMetrics> AggregateByCategory(
    const DimEvalRow& row) {
  std::map<dimeval::TaskCategory, std::vector<std::pair<double, double>>>
      samples;
  for (const auto& [task, metrics] : row.choice) {
    // Incomplete tasks carry scheduling-dependent partial counts; leaving
    // them out keeps the macro average meaningful (and deterministic).
    if (metrics.incomplete) continue;
    samples[dimeval::CategoryOf(task)].emplace_back(metrics.Precision(),
                                                    metrics.F1());
  }
  if (row.qe_f1 >= 0.0) {
    // Extraction contributes its pair-level F1 as both components.
    samples[dimeval::TaskCategory::kBasicPerception].emplace_back(row.qe_f1,
                                                                  row.qe_f1);
  }
  std::map<dimeval::TaskCategory, CategoryMetrics> out;
  for (const auto& [category, values] : samples) {
    CategoryMetrics aggregate;
    for (const auto& [p, f1] : values) {
      aggregate.precision += p;
      aggregate.f1 += f1;
    }
    aggregate.precision /= static_cast<double>(values.size());
    aggregate.f1 /= static_cast<double>(values.size());
    out[category] = aggregate;
  }
  return out;
}

}  // namespace dimqr::eval
