#ifndef DIMQR_BENCH_DIMEVAL_TABLES_H_
#define DIMQR_BENCH_DIMEVAL_TABLES_H_

#include <cstdio>
#include <map>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "bench/common.h"
#include "eval/harness.h"
#include "eval/journal.h"
#include "eval/table.h"
#include "lm/mock_llm.h"
#include "solver/dimperc.h"

/// \file dimeval_tables.h
/// Shared model-building and table-printing for Table VII / Table VIII,
/// used by table07_dimeval and table08_dimperc_vs_base. The printers
/// consume only DimEvalRow vectors.

namespace dimqr::benchtables {

/// \brief One table row's model and its extraction path: a
/// concurrent-safe extractor (e.g. AnnotatorExtractor) or nullptr for the
/// model-backed Model::ExtractQuantities path.
struct ModelSpec {
  std::shared_ptr<lm::Model> model;
  const eval::Extractor* extractor = nullptr;
};

/// \brief The models of one table, in row order, ready for
/// eval::EvaluateOnDimEval. `annotator_extractor` owns the extractor the
/// specs point at (heap-held so the struct can be moved without dangling
/// the pointers).
struct DimEvalTableModels {
  std::vector<ModelSpec> specs;
  std::shared_ptr<eval::Extractor> annotator_extractor;
};

/// \brief Table VII models: the simulated published baselines (minus the
/// Table IX-only supervised rows) plus DimPerc trained in-process on the
/// DimEval training split. Training progress goes to stderr under `tag`.
inline DimEvalTableModels BuildTable07Models(
    const dimeval::DimEvalBenchmark& bench, const char* tag) {
  DimEvalTableModels out;
  for (const std::shared_ptr<lm::Model>& model : lm::BuildPaperBaselines()) {
    // Skip the Table IX-only supervised models (no DimEval profiles).
    if (model->name() == "BertGen" || model->name() == "LLaMa") continue;
    out.specs.push_back({model, nullptr});
  }
  std::fprintf(stderr, "[%s] training DimPerc...\n", tag);
  auto dimperc_seq = std::shared_ptr<solver::Seq2SeqModel>(
      solver::TrainDimPerc(bench, *benchutil::GetKb(),
                           benchutil::BenchModelConfig(),
                           benchutil::DimEvalEpochs())
          .ValueOrDie());
  out.annotator_extractor = std::make_shared<eval::Extractor>(
      eval::AnnotatorExtractor(benchutil::GetAnnotator()));
  out.specs.push_back({std::make_shared<solver::DimPercPipeline>(
                           "DimPerc (ours)", dimperc_seq),
                       out.annotator_extractor.get()});
  return out;
}

/// \brief Table VIII models: the LLaMA_IFT substitute (generic instruction
/// fine-tuning only) and DimPerc, both behind the same pipeline so the
/// contrast is purely the dimensional knowledge in the weights.
inline DimEvalTableModels BuildTable08Models(
    const dimeval::DimEvalBenchmark& bench, const char* tag) {
  DimEvalTableModels out;
  solver::Seq2SeqConfig config = benchutil::BenchModelConfig();
  std::fprintf(stderr,
               "[%s] training LLaMA_IFT substitute (generic instructions "
               "only)...\n",
               tag);
  // The base model shares DimPerc's vocabulary (via vocab_extra) so its
  // deficit is knowledge, not token coverage.
  std::vector<solver::SeqExample> dimeval_pairs =
      solver::MakeDimEvalExamples(bench.train);
  std::vector<solver::SeqExample> generic =
      solver::MakeGenericInstructionExamples(
          static_cast<int>(dimeval_pairs.size()), 42);
  auto base_seq = std::shared_ptr<solver::Seq2SeqModel>(
      solver::Seq2SeqModel::Create("LLaMA_IFT", generic, config,
                                   dimeval_pairs)
          .ValueOrDie());
  base_seq->TrainEpochs(std::max(1, benchutil::DimEvalEpochs() / 2))
      .ValueOrDie();

  std::fprintf(stderr, "[%s] fine-tuning DimPerc on DimEval...\n", tag);
  auto dimperc_seq = std::shared_ptr<solver::Seq2SeqModel>(
      solver::TrainDimPerc(bench, *benchutil::GetKb(), config,
                           benchutil::DimEvalEpochs())
          .ValueOrDie());

  out.annotator_extractor = std::make_shared<eval::Extractor>(
      eval::AnnotatorExtractor(benchutil::GetAnnotator()));
  out.specs.push_back(
      {std::make_shared<solver::DimPercPipeline>("LLaMA_IFT", base_seq),
       nullptr});
  out.specs.push_back(
      {std::make_shared<solver::DimPercPipeline>("DimPerc", dimperc_seq),
       out.annotator_extractor.get()});
  return out;
}

/// \brief Evaluates every model, returning rows in spec order. Progress
/// goes to stderr under `tag`; a non-null `journal` checkpoints each
/// completed task and replays journaled ones.
inline std::vector<eval::DimEvalRow> EvaluateDimEvalRows(
    const DimEvalTableModels& models, const dimeval::DimEvalBenchmark& bench,
    eval::EvalJournal* journal, const char* tag) {
  std::vector<eval::DimEvalRow> rows;
  rows.reserve(models.specs.size());
  for (const ModelSpec& spec : models.specs) {
    std::fprintf(stderr, "[%s] evaluating %s...\n", tag,
                 spec.model->name().c_str());
    rows.push_back(eval::EvaluateOnDimEval(*spec.model, bench, spec.extractor,
                                           journal));
  }
  return rows;
}

/// \brief Prints Table VII (header, baseline rows, separator, the DimPerc
/// row — expected last — and the shape check) from finished rows.
inline void PrintTable07(const std::vector<eval::DimEvalRow>& rows,
                         std::ostream& os) {
  using eval::TablePrinter;
  os << "=== Table VII: DimEval results ===\n"
     << "(baseline rows: calibrated simulators of the published "
        "numbers; DimPerc row: measured)\n\n";

  TablePrinter table({"Model", "QE", "VE", "UE", "QK P", "QK F1", "Comp P",
                      "Comp F1", "DPred P", "DPred F1", "DArith P",
                      "DArith F1", "Mag P", "Mag F1", "Conv P", "Conv F1"});
  // Incomplete tasks (permanent backend failure under fault injection)
  // print an explicit "inc" marker: their partial counts are diagnostics,
  // not results.
  auto p_cell = [](const eval::ChoiceMetrics& m) {
    return m.incomplete ? std::string("inc") : TablePrinter::Pct(m.Precision());
  };
  auto f1_cell = [](const eval::ChoiceMetrics& m) {
    return m.incomplete ? std::string("inc") : TablePrinter::Pct(m.F1());
  };
  auto qe_cell = [](const eval::DimEvalRow& row, double value) {
    return row.extraction_incomplete ? std::string("inc")
                                     : TablePrinter::Pct(value);
  };
  auto add_row = [&](const eval::DimEvalRow& row) {
    using namespace lm::tasks;
    auto& qk = row.choice.at(kQuantityKindMatch);
    auto& comp = row.choice.at(kComparableAnalysis);
    auto& dpred = row.choice.at(kDimensionPrediction);
    auto& darith = row.choice.at(kDimensionArithmetic);
    auto& mag = row.choice.at(kMagnitudeComparison);
    auto& conv = row.choice.at(kUnitConversion);
    table.AddRow({row.model, qe_cell(row, row.qe_f1),
                  qe_cell(row, row.ve_f1), qe_cell(row, row.ue_f1),
                  p_cell(qk), f1_cell(qk), p_cell(comp), f1_cell(comp),
                  p_cell(dpred), f1_cell(dpred), p_cell(darith),
                  f1_cell(darith), p_cell(mag), f1_cell(mag), p_cell(conv),
                  f1_cell(conv)});
  };
  for (std::size_t i = 0; i + 1 < rows.size(); ++i) add_row(rows[i]);
  table.AddSeparator();
  add_row(rows.back());
  table.Print(os);

  // Shape check: DimPerc beats the best baseline on the dimension- and
  // scale-perception F1 macro average (the paper's headline RQ1/RQ2 gap).
  auto macro = [](const eval::DimEvalRow& row) {
    auto cats = eval::AggregateByCategory(row);
    return (cats[dimeval::TaskCategory::kDimensionPerception].f1 +
            cats[dimeval::TaskCategory::kScalePerception].f1) /
           2.0;
  };
  double best_baseline = 0.0;
  for (std::size_t i = 0; i + 1 < rows.size(); ++i) {
    best_baseline = std::max(best_baseline, macro(rows[i]));
  }
  double dimperc_macro = macro(rows.back());
  os << "\nShape check (DimPerc dimension+scale macro F1 "
     << TablePrinter::Pct(dimperc_macro) << " > best baseline "
     << TablePrinter::Pct(best_baseline) << "): "
     << (dimperc_macro > best_baseline ? "PRESERVED" : "VIOLATED") << "\n";
}

/// \brief Prints Table VIII (paper reference block, measured category
/// table, shape check) from finished rows: rows[0] = base, rows[1] =
/// DimPerc.
inline void PrintTable08(const std::vector<eval::DimEvalRow>& rows,
                         std::ostream& os) {
  using eval::TablePrinter;
  auto base_cats = eval::AggregateByCategory(rows[0]);
  auto dimperc_cats = eval::AggregateByCategory(rows[1]);

  os << "=== Table VIII: DimPerc vs base model on DimEval ===\n\n"
     << "Paper reference (precision / F1, %):\n"
     << "  LLaMA_IFT: basic 29.65/24.01  dimension 20.38/16.64  "
        "scale 8.94/6.70\n"
     << "  DimPerc:   basic 71.69/63.13  dimension 82.82/77.30  "
        "scale 89.74/81.31\n\n"
     << "Measured from this build:\n";
  TablePrinter table({"Model", "Basic P", "Basic F1", "Dim P", "Dim F1",
                      "Scale P", "Scale F1"});
  auto row_of = [](const std::string& name,
                   std::map<dimeval::TaskCategory, eval::CategoryMetrics>&
                       cats) {
    using dimeval::TaskCategory;
    return std::vector<std::string>{
        name,
        TablePrinter::Pct(cats[TaskCategory::kBasicPerception].precision),
        TablePrinter::Pct(cats[TaskCategory::kBasicPerception].f1),
        TablePrinter::Pct(cats[TaskCategory::kDimensionPerception].precision),
        TablePrinter::Pct(cats[TaskCategory::kDimensionPerception].f1),
        TablePrinter::Pct(cats[TaskCategory::kScalePerception].precision),
        TablePrinter::Pct(cats[TaskCategory::kScalePerception].f1)};
  };
  table.AddRow(row_of(rows[0].model, base_cats));
  table.AddRow(row_of(rows[1].model, dimperc_cats));
  table.Print(os);

  using dimeval::TaskCategory;
  bool all_gain =
      dimperc_cats[TaskCategory::kBasicPerception].precision >
          base_cats[TaskCategory::kBasicPerception].precision &&
      dimperc_cats[TaskCategory::kDimensionPerception].precision >
          base_cats[TaskCategory::kDimensionPerception].precision &&
      dimperc_cats[TaskCategory::kScalePerception].precision >
          base_cats[TaskCategory::kScalePerception].precision;
  os << "\nShape check (DimPerc > base in every category): "
     << (all_gain ? "PRESERVED" : "VIOLATED") << "\n";
}

}  // namespace dimqr::benchtables

#endif  // DIMQR_BENCH_DIMEVAL_TABLES_H_
