// Reproduces Figure 3: popular units sorted by the frequency feature of
// DimUnitKB (Eq. 1-2). Prints the top units with ASCII bars; the paper's
// qualitative shape — everyday units (metre, hour, kilogram, percent) at
// the top, long flat tail of rare units — should be visible.

#include <iostream>

#include "bench/common.h"
#include "eval/table.h"

int main(int argc, char** argv) {
  dimqr::benchutil::InitFromArgs(argc, argv);
  const dimqr::kb::DimUnitKB& kb = *dimqr::benchutil::GetKb();
  std::vector<dimqr::UnitId> ranked = kb.UnitsByFrequency();

  std::cout << "=== Figure 3: units ranked by Freq(u) (Eq. 1-2; "
               "alpha=(0.3,0.3,0.4), delta=0.1) ===\n\n";
  constexpr int kTop = 24;
  for (int i = 0; i < kTop && i < static_cast<int>(ranked.size()); ++i) {
    const dimqr::kb::UnitRecord& u = kb.Get(ranked[i]);
    int bar = static_cast<int>(u.frequency * 48.0);
    std::printf("%2d. %-22s %5.3f |%s\n", i + 1,
                std::string(u.label_en).c_str(), u.frequency,
                std::string(bar, '#').c_str());
  }
  std::cout << "\n... tail of the ranking ...\n";
  for (std::size_t i = ranked.size() - 3; i < ranked.size(); ++i) {
    const dimqr::kb::UnitRecord& u = kb.Get(ranked[i]);
    std::printf("%4zu. %-40s %5.3f\n", i + 1,
                std::string(u.label_en).c_str(), u.frequency);
  }

  // The paper's motivating contrast (Section III-A4): metre common,
  // decimetre rare.
  const dimqr::kb::UnitRecord* metre =
      &kb.Get(kb.IdOf("M"));
  const dimqr::kb::UnitRecord* decimetre =
      &kb.Get(kb.IdOf("DeciM"));
  std::printf("\nShape check: Freq(metre)=%.3f > Freq(decimetre)=%.3f : %s\n",
              metre->frequency, decimetre->frequency,
              metre->frequency > decimetre->frequency ? "PRESERVED"
                                                      : "VIOLATED");
  return 0;
}
