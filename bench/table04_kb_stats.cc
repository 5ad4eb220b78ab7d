// Reproduces Table IV: statistics of DimUnitKB against UoM and
// WolframAlpha (#units, #quantity kinds, #dimension vectors, language
// support, frequency feature). The UoM and WolframAlpha rows are the
// paper's published numbers; the DimUnitKB row is measured from the
// catalog built by this library.

#include <iostream>

#include "bench/common.h"
#include "eval/table.h"

int main(int argc, char** argv) {
  dimqr::benchutil::InitFromArgs(argc, argv);
  using dimqr::eval::TablePrinter;
  const dimqr::kb::DimUnitKB& kb = *dimqr::benchutil::GetKb();
  dimqr::kb::KbStats stats = kb.Stats();

  std::cout << "=== Table IV: unit-resource statistics ===\n"
            << "(UoM / WolframAlpha rows: published values; DimUnitKB row: "
               "measured from this build)\n\n";
  TablePrinter table({"Resource", "#Units", "#QuantityKind", "#Dim.Vector",
                      "Lang.", "Freq."});
  table.AddRow({"UoM [12]", "76", "16", "-", "En", "no"});
  table.AddRow({"WolframAlpha", "540", "173", "63", "En", "no"});
  table.AddRow({"DimUnitKB (paper)", "1778", "327", "175", "En&Zh", "yes"});
  table.AddSeparator();
  table.AddRow({"DimUnitKB (measured)", std::to_string(stats.num_units),
                std::to_string(stats.num_quantity_kinds),
                std::to_string(stats.num_dimension_vectors), "En&Zh", "yes"});
  table.Print(std::cout);

  std::cout << "\nComposition: " << stats.num_seed_units << " seed units, "
            << stats.num_prefix_units << " SI-prefix expansions, "
            << stats.num_compound_units << " compound units; "
            << stats.num_units_with_zh << "/" << stats.num_units
            << " units carry a Chinese label.\n"
            << "\nShape check (paper's ordering DimUnitKB >> WolframAlpha "
               ">> UoM): "
            << (stats.num_units > 540 && stats.num_quantity_kinds > 173 &&
                        stats.num_dimension_vectors > 63
                    ? "PRESERVED"
                    : "VIOLATED")
            << "\n";
  return 0;
}
