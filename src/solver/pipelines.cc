#include "solver/pipelines.h"

#include <cmath>
#include <optional>

#include "core/parallel.h"
#include "lm/mock_llm.h"
#include "lm/resilient_model.h"
#include "mwp/equation.h"
#include "mwp/slotting.h"
#include "solver/dimperc.h"
#include "text/string_util.h"

namespace dimqr::solver {
namespace {

using dimqr::Result;
using dimqr::Rng;

}  // namespace

std::vector<SeqExample> MakeDimEvalExamples(
    const std::vector<dimeval::TaskInstance>& instances) {
  std::vector<SeqExample> out;
  for (const dimeval::TaskInstance& inst : instances) {
    if (inst.IsExtraction()) continue;
    SeqExample ex;
    ex.input = inst.prompt;
    ex.middle = inst.reasoning;
    ex.answer = std::string(1, static_cast<char>('a' + inst.gold_index));
    ex.middle_is_equation = false;
    out.push_back(std::move(ex));
  }
  return out;
}

std::vector<SeqExample> MakeMwpExamples(
    const std::vector<mwp::TemplatedProblem>& problems) {
  // Number-slot abstraction (mwp/slotting.h): inputs and equations use
  // n1..nk tokens; only out-of-text constants (conversion factors) remain
  // literal. The answer segment is a fixed marker — scoring runs on the
  // equation through the calculator.
  std::vector<SeqExample> out;
  out.reserve(problems.size());
  for (const mwp::TemplatedProblem& tp : problems) {
    dimqr::Result<mwp::SlottedProblem> slotted =
        mwp::SlotNumbers(tp.problem);
    if (!slotted.ok()) continue;
    SeqExample ex;
    ex.input = slotted->input_text;
    ex.middle = slotted->equation;
    ex.answer = "ans";
    ex.middle_is_equation = true;
    out.push_back(std::move(ex));
  }
  return out;
}

std::vector<SeqExample> MakeUnitKnowledgeExamples(const kb::DimUnitKB& kb,
                                                  std::size_t pool_size,
                                                  int repeats) {
  std::vector<SeqExample> out;
  std::vector<const kb::UnitRecord*> ranked;
  for (UnitId uid : kb.UnitsByFrequency()) {
    const kb::UnitRecord& u = kb.Get(uid);
    if (u.origin == kb::UnitOrigin::kCompound) continue;  // match the
    ranked.push_back(&u);  // generator pool (see GeneratorOptions)
    if (pool_size != 0 && ranked.size() >= pool_size) break;
  }
  for (const kb::UnitRecord* unit_ptr : ranked) {
    const kb::UnitRecord& unit = *unit_ptr;
    std::string label = text::ToLowerAscii(unit.label_en);
    std::string dim = text::ToLowerAscii(unit.dimension.ToFormula());
    int k = static_cast<int>(
        std::lround(std::log10(unit.conversion_value)));
    std::string scale = "e" + std::to_string(k);
    for (int r = 0; r < repeats; ++r) {
      SeqExample dim_ex;
      dim_ex.input = "task: dimof | unit: " + label;
      dim_ex.middle = label + " is " + dim;
      dim_ex.answer = dim;
      out.push_back(std::move(dim_ex));
      SeqExample scale_ex;
      scale_ex.input = "task: scaleof | unit: " + label;
      scale_ex.middle = label + " is " + scale;
      scale_ex.answer = scale;
      out.push_back(std::move(scale_ex));
    }
  }
  return out;
}

std::vector<SeqExample> MakeGenericInstructionExamples(int n,
                                                       std::uint64_t seed) {
  // Knowledge-free instruction data: the model learns the "| a: .. | b: .."
  // prompt shape and the "reason <sep> letter" output format, but the
  // mapping from content to answer is random — exactly the LLaMA_IFT
  // starting point of Table VIII (format without dimensional knowledge).
  static const char* kNouns[] = {"box",   "card",  "tree",  "coin",
                                 "book",  "stone", "wheel", "lamp"};
  static const char* kTasks[] = {"pick", "choose", "select", "find"};
  Rng rng(Rng::DeriveSeed(seed, "generic-instructions"));
  std::vector<SeqExample> out;
  out.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    int gold = static_cast<int>(rng.Index(4));
    SeqExample ex;
    ex.input = std::string("task: ") + kTasks[rng.Index(4)] + " | item: " +
               kNouns[rng.Index(8)];
    for (int c = 0; c < 4; ++c) {
      ex.input += std::string(" | ") + static_cast<char>('a' + c) + ": " +
                  kNouns[rng.Index(8)];
    }
    ex.middle = std::string("the requested item is option ") +
                static_cast<char>('a' + gold);
    ex.answer = std::string(1, static_cast<char>('a' + gold));
    out.push_back(std::move(ex));
  }
  return out;
}

std::vector<SeqExample> MakeDimPercExamples(
    const dimeval::DimEvalBenchmark& bench, const kb::DimUnitKB& kb) {
  std::vector<SeqExample> train = MakeDimEvalExamples(bench.train);
  // Knowledge infusion (Section IV-D): unit->dimension, unit->scale,
  // kind->dimension and pairwise conversion-factor associations.
  std::vector<SeqExample> knowledge = MakeUnitKnowledgeExamples(kb);
  std::vector<SeqExample> kinds = MakeKindKnowledgeExamples(kb);
  std::vector<SeqExample> conversions = MakeConversionKnowledgeExamples(kb);
  train.insert(train.end(), knowledge.begin(), knowledge.end());
  train.insert(train.end(), kinds.begin(), kinds.end());
  train.insert(train.end(), conversions.begin(), conversions.end());
  return train;
}

Result<std::unique_ptr<Seq2SeqModel>> TrainDimPerc(
    const dimeval::DimEvalBenchmark& bench, const kb::DimUnitKB& kb,
    const Seq2SeqConfig& config, int epochs,
    std::vector<SeqExample> extra_examples) {
  DIMQR_ASSIGN_OR_RETURN(
      std::unique_ptr<Seq2SeqModel> model,
      Seq2SeqModel::Create("DimPerc", MakeDimPercExamples(bench, kb), config,
                           extra_examples));
  DIMQR_RETURN_NOT_OK(model->TrainEpochs(epochs).status());
  return model;
}

double EvaluateMwpAccuracy(
    lm::Model& model, const std::vector<mwp::TemplatedProblem>& problems) {
  if (problems.empty()) return 0.0;
  // Run behind the resilience layer (same contract as EvaluateOnDimEval):
  // transient faults on "lm.answer_text" are retried; a permanent failure
  // degrades that problem to an empty response, scored incorrect — a
  // deterministic per-instance decision, so the accuracy stays exact.
  auto* shield = dynamic_cast<lm::ResilientModel*>(&model);
  std::optional<lm::ResilientModel> local_shield;
  if (shield == nullptr) {
    local_shield.emplace(model);
    shield = &*local_shield;
  }
  const auto n = static_cast<std::int64_t>(problems.size());
  // Per-problem evaluation fans out over the pool when the model allows it;
  // correctness counts are integers merged in chunk order, so the accuracy
  // is identical at every thread count.
  const std::int64_t grain = model.SupportsParallelEval() ? 0 : n;
  dimqr::Result<std::size_t> correct = dimqr::ParallelMapReduce<std::size_t>(
      n, std::size_t{0},
      [&](std::int64_t begin, std::int64_t end,
          int) -> dimqr::Result<std::size_t> {
        std::size_t partial = 0;
        for (std::int64_t i = begin; i < end; ++i) {
          const mwp::TemplatedProblem& tp =
              problems[static_cast<std::size_t>(i)];
          dimqr::Result<mwp::SlottedProblem> slotted =
              mwp::SlotNumbers(tp.problem);
          if (!slotted.ok()) continue;
          lm::TextQuestion question;
          question.task = tp.problem.dataset;
          question.prompt = slotted->input_text;
          question.gold = slotted->equation;
          question.instance_seed =
              Rng::DeriveSeed(20240131, "mwp-eval-" + tp.problem.id);
          std::string response = shield->AnswerText(question);
          if (response.empty()) continue;
          std::string unslotted =
              mwp::UnslotEquation(response, slotted->slot_literals);
          if (mwp::EquationAnswersMatch(unslotted, tp.problem.answer)) {
            ++partial;
          }
        }
        return partial;
      },
      [](std::size_t& acc, std::size_t&& partial) { acc += partial; }, grain);
  return static_cast<double>(correct.ValueOrDie()) /
         static_cast<double>(problems.size());
}

}  // namespace dimqr::solver
