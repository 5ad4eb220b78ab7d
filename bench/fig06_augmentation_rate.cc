// Reproduces Figure 6: accuracy of the DimPerc model on Q-Ape210k as a
// function of the data augmentation rate eta. The paper's shape: accuracy
// rises with eta and saturates at eta >= 0.5.

#include <iostream>

#include "bench/common.h"
#include "eval/table.h"

int main(int argc, char** argv) {
  dimqr::benchutil::InitFromArgs(argc, argv);
  using namespace dimqr;
  const benchutil::MwpDatasets& d = benchutil::GetMwpDatasets();
  solver::Seq2SeqConfig config = benchutil::BenchModelConfig();

  std::cout << "=== Figure 6: accuracy on Q-Ape210k vs augmentation rate "
               "eta ===\n\n";
  const double rates[] = {0.0, 0.25, 0.5, 0.75, 1.0};
  std::vector<double> accuracies;
  // Vocabulary coverage comes from the fully augmented pool so that eta
  // only controls training data composition.
  std::vector<solver::SeqExample> vocab_extra =
      solver::MakeMwpExamples(d.train_q_ape210k);
  for (double eta : rates) {
    std::cerr << "[fig06] training at eta = " << eta << "...\n";
    mwp::QMwpOptions q_options;
    q_options.augmentation_rate = eta;
    q_options.seed = 778;  // same stream as the full training split
    std::vector<mwp::TemplatedProblem> train_problems =
        mwp::BuildQMwp(d.train_n_ape210k, "q_ape210k",
                       *benchutil::GetKb(), q_options)
            .ValueOrDie();
    auto model = solver::Seq2SeqModel::Create(
                     "DimPerc", solver::MakeMwpExamples(train_problems),
                     config, vocab_extra)
                     .ValueOrDie();
    model->TrainEpochs(benchutil::MwpEpochs()).ValueOrDie();
    accuracies.push_back(solver::EvaluateMwpAccuracy(*model, d.q_ape210k));
  }

  std::cout << "eta    accuracy\n";
  for (std::size_t i = 0; i < accuracies.size(); ++i) {
    int bar = static_cast<int>(accuracies[i] * 60.0);
    std::printf("%.2f   %6.2f%%  |%s\n", rates[i], accuracies[i] * 100.0,
                std::string(bar, '#').c_str());
  }

  bool rising = accuracies.back() > accuracies.front();
  bool saturating =
      accuracies[2] >= accuracies.front() &&
      accuracies.back() - accuracies[2] < accuracies[2] - accuracies[0] + 0.05;
  std::cout << "\nShape checks:\n"
            << "  accuracy rises with eta:            "
            << (rising ? "PRESERVED" : "VIOLATED") << "\n"
            << "  gains concentrate below eta = 0.5:  "
            << (saturating ? "PRESERVED" : "VIOLATED") << "\n";
  return 0;
}
