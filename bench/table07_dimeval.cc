// Reproduces Table VII: results of all models on DimEval — the twelve
// published baseline rows (simulated from their Table VII skill profiles;
// see DESIGN.md) plus DimPerc, trained in-process on the DimEval training
// split and evaluated through the knowledge-recall pipeline. The expected
// shape: DimPerc dominates dimension- and scale-perception tasks.
//
// Model building and printing live in bench/dimeval_tables.h, shared with
// table08.

#include <iostream>
#include <string_view>

#include "bench/common.h"
#include "bench/dimeval_tables.h"
#include "eval/journal.h"

int main(int argc, char** argv) {
  using namespace dimqr;
  benchutil::InitFromArgs(argc, argv);

  // --journal=<path>: checkpoint each completed (model, task) evaluation;
  // rerunning with the same path resumes, replaying journaled counts.
  std::unique_ptr<eval::EvalJournal> journal;
  for (int i = 1; i < argc; ++i) {
    std::string_view arg = argv[i];
    if (arg.rfind("--journal=", 0) == 0) {
      auto opened = eval::EvalJournal::Open(std::string(arg.substr(10)));
      if (!opened.ok()) {
        std::cerr << "table07: " << opened.status().ToString() << "\n";
        return 1;
      }
      journal = std::move(opened).ValueOrDie();
      if (journal->loaded_records() > 0) {
        std::cerr << "[table07] resuming: " << journal->loaded_records()
                  << " journaled task(s) will be replayed\n";
      }
    } else {
      std::cerr << "table07: unknown argument '" << arg
                << "' (supported: --journal=<path>)\n";
      return 1;
    }
  }

  const dimeval::DimEvalBenchmark& bench = benchutil::GetDimEval();
  benchtables::DimEvalTableModels models =
      benchtables::BuildTable07Models(bench, "table07");
  std::vector<eval::DimEvalRow> rows =
      benchtables::EvaluateDimEvalRows(models, bench, journal.get(),
                                       "table07");
  benchtables::PrintTable07(rows, std::cout);
  return 0;
}
