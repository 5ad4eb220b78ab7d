#ifndef DIMQR_SOLVER_PIPELINES_H_
#define DIMQR_SOLVER_PIPELINES_H_

#include <memory>
#include <vector>

#include "dimeval/benchmark.h"
#include "mwp/augment.h"
#include "solver/seq2seq.h"

/// \file pipelines.h
/// Training and evaluation pipelines tying the pieces together:
///  - DimPerc: the model continually fine-tuned on DimEval (Section IV-D),
///    then on MWP data for quantitative reasoning (Section V-B1);
///  - LLaMA_IFT: the base model fine-tuned only on a generic instruction
///    dataset (Section VI-C) — it knows the answer *format* but carries no
///    dimensional knowledge;
///  - MWP evaluation via the Section VI-D calculator.

namespace dimqr::solver {

/// \brief Converts DimEval choice instances into seq2seq training pairs
/// (y = "<bos> R <sep> A <eos>"). Extraction instances are skipped — the
/// DimPerc pipeline answers extraction through DimKS (see EXPERIMENTS.md).
std::vector<SeqExample> MakeDimEvalExamples(
    const std::vector<dimeval::TaskInstance>& instances);

/// \brief Converts MWP problems into seq2seq pairs
/// (y = "<bos> E <sep> A <eos>").
std::vector<SeqExample> MakeMwpExamples(
    const std::vector<mwp::TemplatedProblem>& problems);

/// \brief Auxiliary unit-knowledge pairs injected into DimPerc training:
/// direct "unit -> dimension word" and "unit -> scale exponent"
/// associations over the common-unit pool. This is the knowledge-infusion
/// half of Section IV-D; the DimEval task pairs teach the task formats
/// that exercise it.
std::vector<SeqExample> MakeUnitKnowledgeExamples(const kb::DimUnitKB& kb,
                                                  std::size_t pool_size = 320,
                                                  int repeats = 4);

/// \brief Generic instruction-following pairs with the DimEval *format*
/// but knowledge-free content (random letters as answers); the LLaMA_IFT
/// training set.
std::vector<SeqExample> MakeGenericInstructionExamples(int n,
                                                       std::uint64_t seed);

/// \brief DimPerc's training mix: the DimEval training split's choice pairs
/// followed by the unit, kind and conversion knowledge pairs.
std::vector<SeqExample> MakeDimPercExamples(
    const dimeval::DimEvalBenchmark& bench, const kb::DimUnitKB& kb);

/// \brief Trains DimPerc: a Seq2SeqModel over MakeDimPercExamples.
/// `extra_examples` (e.g. MWP pairs for later fine-tuning phases) are
/// included in vocabulary construction but not trained here.
dimqr::Result<std::unique_ptr<Seq2SeqModel>> TrainDimPerc(
    const dimeval::DimEvalBenchmark& bench, const kb::DimUnitKB& kb,
    const Seq2SeqConfig& config, int epochs,
    std::vector<SeqExample> extra_examples = {});

/// \brief Evaluation of a model on MWP problems: the model emits an
/// equation (or answer); the calculator scores it against the reference
/// answer (Section VI-D). Returns accuracy in [0, 1].
double EvaluateMwpAccuracy(lm::Model& model,
                           const std::vector<mwp::TemplatedProblem>& problems);

}  // namespace dimqr::solver

#endif  // DIMQR_SOLVER_PIPELINES_H_
