// Reproduces Figure 4: the top quantity kinds (frequency = mean of the
// top-5 member units) and their top-5 units with per-unit frequency
// values, matching the paper's panel layout.

#include <algorithm>
#include <iostream>

#include "bench/common.h"

int main(int argc, char** argv) {
  dimqr::benchutil::InitFromArgs(argc, argv);
  const dimqr::kb::DimUnitKB& kb = *dimqr::benchutil::GetKb();
  auto kinds = kb.KindsByFrequency(/*top_k=*/5);

  std::cout << "=== Figure 4: top quantity kinds and their top-5 units ===\n"
            << "(kind frequency = mean Freq of its top five units)\n\n";
  constexpr std::size_t kTop = 14;
  for (std::size_t i = 0; i < kTop && i < kinds.size(); ++i) {
    const auto& [kind, freq] = kinds[i];
    std::printf("%2zu. %-28s %5.3f\n", i + 1,
                std::string(kb.GetKind(kind).name).c_str(), freq);
    std::span<const dimqr::UnitId> member_ids = kb.UnitsOfKind(kind);
    std::vector<const dimqr::kb::UnitRecord*> members;
    members.reserve(member_ids.size());
    for (dimqr::UnitId uid : member_ids) {
      members.push_back(&kb.Get(uid));
    }
    std::sort(members.begin(), members.end(),
              [](const dimqr::kb::UnitRecord* a,
                 const dimqr::kb::UnitRecord* b) {
                return a->frequency > b->frequency;
              });
    for (std::size_t j = 0; j < 5 && j < members.size(); ++j) {
      std::printf("       %-26s %5.3f\n",
                  std::string(members[j]->label_en).c_str(),
                  members[j]->frequency);
    }
  }

  // Shape check: everyday kinds (Length, Time, Mass) rank in the top 14.
  bool length = false, time = false, mass = false;
  for (std::size_t i = 0; i < kTop && i < kinds.size(); ++i) {
    std::string_view name = kb.GetKind(kinds[i].first).name;
    if (name == "Length") length = true;
    if (name == "Time") time = true;
    if (name == "Mass") mass = true;
  }
  std::printf("\nShape check (Length/Time/Mass in top %zu): %s\n", kTop,
              length && time && mass ? "PRESERVED" : "VIOLATED");
  return 0;
}
