// Reproduces Figure 7: accuracy on Q-Ape210k across training steps for the
// base model vs DimPerc initialization, each with and without equation
// tokenization (ET = digit-split numbers, Section V-B3). The paper's
// findings: (a) DimPerc leads the base model especially early in training;
// (b) ET *hurts* (contradicting GenBERT's small-model result).

#include <iostream>

#include "bench/common.h"
#include "eval/table.h"

namespace {

struct Curve {
  std::string label;
  std::vector<double> accuracy;
};

}  // namespace

int main(int argc, char** argv) {
  dimqr::benchutil::InitFromArgs(argc, argv);
  using namespace dimqr;
  const benchutil::MwpDatasets& d = benchutil::GetMwpDatasets();

  std::cout << "=== Figure 7: Q-Ape210k accuracy vs training steps ===\n\n";
  const int kCheckpoints = benchutil::FastMode() ? 2 : 3;
  const int kStepsPerCheckpoint = benchutil::FastMode() ? 20 : 70;

  std::vector<solver::SeqExample> q_train =
      solver::MakeMwpExamples(d.train_q_ape210k);
  std::vector<solver::SeqExample> dimeval_knowledge =
      solver::MakeUnitKnowledgeExamples(*benchutil::GetKb(),
                                        /*pool_size=*/240, /*repeats=*/2);

  std::vector<Curve> curves;
  for (bool dimperc_init : {false, true}) {
    for (bool equation_tokenization : {false, true}) {
      solver::Seq2SeqConfig config = benchutil::BenchModelConfig();
      config.tokenization = equation_tokenization
                                ? mwp::TokenizationMode::kDigit
                                : mwp::TokenizationMode::kRegular;
      std::string label = std::string(dimperc_init ? "DimPerc" : "LLaMA_ift") +
                          (equation_tokenization ? " w/ ET" : " w/o ET");
      std::cerr << "[fig07] " << label << "...\n";
      // DimPerc initialization: phase-1 training on dimensional knowledge
      // before the MWP phase (Section V-B1's continued fine-tuning).
      std::unique_ptr<solver::Seq2SeqModel> model;
      if (dimperc_init) {
        model = solver::Seq2SeqModel::Create(label, dimeval_knowledge,
                                             config, q_train)
                    .ValueOrDie();
        model->TrainEpochs(2).ValueOrDie();
        if (!model->ReplaceTrainingSet(q_train).ok()) return 1;
      } else {
        model =
            solver::Seq2SeqModel::Create(label, q_train, config).ValueOrDie();
      }
      Curve curve;
      curve.label = label;
      for (int checkpoint = 0; checkpoint < kCheckpoints; ++checkpoint) {
        model->TrainSteps(kStepsPerCheckpoint).ValueOrDie();
        curve.accuracy.push_back(
            solver::EvaluateMwpAccuracy(*model, d.q_ape210k));
      }
      curves.push_back(std::move(curve));
    }
  }

  std::cout << "steps:";
  for (int c = 1; c <= kCheckpoints; ++c) {
    std::printf(" %6d", c * kStepsPerCheckpoint);
  }
  std::cout << "\n";
  for (const Curve& curve : curves) {
    std::printf("%-18s", curve.label.c_str());
    for (double a : curve.accuracy) std::printf(" %5.1f%%", a * 100.0);
    std::printf("\n");
  }

  // Shape checks. Curves order: base w/o ET, base w/ ET, DimPerc w/o ET,
  // DimPerc w/ ET.
  double base_final = curves[0].accuracy.back();
  double base_et_final = curves[1].accuracy.back();
  double dimperc_first = curves[2].accuracy.front();
  double base_first = curves[0].accuracy.front();
  double dimperc_final = curves[2].accuracy.back();
  std::cout << "\nShape checks:\n"
            << "  DimPerc leads early in training:      "
            << (dimperc_first >= base_first ? "PRESERVED" : "VIOLATED")
            << "\n"
            << "  equation tokenization hurts (w/o ET > w/ ET): "
            << (base_final >= base_et_final ? "PRESERVED" : "VIOLATED")
            << "\n"
            << "  DimPerc >= base at the end:           "
            << (dimperc_final + 0.02 >= base_final ? "PRESERVED" : "VIOLATED")
            << "\n";
  return 0;
}
