// Reproduces Table VIII: DimPerc vs the base model (LLaMA_IFT) on the
// three DimEval categories. The base model is fine-tuned only on generic
// instruction data (answer format, no dimensional knowledge); DimPerc is
// the same architecture fine-tuned on the DimEval training split
// (Section IV-D). The expected shape: large gains in every category.
//
// Model building and printing live in bench/dimeval_tables.h, shared with
// table07.

#include <iostream>
#include <string_view>

#include "bench/common.h"
#include "bench/dimeval_tables.h"
#include "eval/journal.h"

int main(int argc, char** argv) {
  using namespace dimqr;
  benchutil::InitFromArgs(argc, argv);

  // --journal=<path>: checkpoint/resume per completed (model, task); see
  // eval/journal.h. (Training itself is fast here; the journal covers the
  // evaluation passes.)
  std::unique_ptr<eval::EvalJournal> journal;
  for (int i = 1; i < argc; ++i) {
    std::string_view arg = argv[i];
    if (arg.rfind("--journal=", 0) == 0) {
      auto opened = eval::EvalJournal::Open(std::string(arg.substr(10)));
      if (!opened.ok()) {
        std::cerr << "table08: " << opened.status().ToString() << "\n";
        return 1;
      }
      journal = std::move(opened).ValueOrDie();
      if (journal->loaded_records() > 0) {
        std::cerr << "[table08] resuming: " << journal->loaded_records()
                  << " journaled task(s) will be replayed\n";
      }
    } else {
      std::cerr << "table08: unknown argument '" << arg
                << "' (supported: --journal=<path>)\n";
      return 1;
    }
  }

  const dimeval::DimEvalBenchmark& bench = benchutil::GetDimEval();
  benchtables::DimEvalTableModels models =
      benchtables::BuildTable08Models(bench, "table08");
  std::vector<eval::DimEvalRow> rows =
      benchtables::EvaluateDimEvalRows(models, bench, journal.get(),
                                       "table08");
  benchtables::PrintTable08(rows, std::cout);
  return 0;
}
