#include "text/levenshtein.h"

#include <algorithm>

#include "text/string_util.h"

namespace dimqr::text {

std::size_t LevenshteinDistance(std::string_view a, std::string_view b) {
  std::vector<std::size_t> row;
  return LevenshteinDistance(PackedCodePoints(a), PackedCodePoints(b), row);
}

std::size_t LevenshteinDistance(std::span<const std::uint32_t> a,
                                std::span<const std::uint32_t> b,
                                std::vector<std::size_t>& row) {
  if (a.empty()) return b.size();
  if (b.empty()) return a.size();
  // One-row dynamic program: row[j] holds the previous row's value until
  // column j is overwritten; `diag` carries the previous row's row[j - 1].
  row.resize(b.size() + 1);
  for (std::size_t j = 0; j <= b.size(); ++j) row[j] = j;
  for (std::size_t i = 1; i <= a.size(); ++i) {
    std::size_t diag = row[0];
    row[0] = i;
    const std::uint32_t ai = a[i - 1];
    for (std::size_t j = 1; j <= b.size(); ++j) {
      const std::size_t sub = diag + (ai == b[j - 1] ? 0 : 1);
      diag = row[j];
      row[j] = std::min({row[j] + 1, row[j - 1] + 1, sub});
    }
  }
  return row[b.size()];
}

double LevenshteinSimilarity(std::string_view a, std::string_view b) {
  std::size_t la = Utf8Length(a), lb = Utf8Length(b);
  std::size_t longest = std::max(la, lb);
  if (longest == 0) return 1.0;
  std::size_t d = LevenshteinDistance(a, b);
  return 1.0 - static_cast<double>(d) / static_cast<double>(longest);
}

double LevenshteinSimilarityIgnoreCase(std::string_view a,
                                       std::string_view b) {
  return LevenshteinSimilarity(ToLowerAscii(a), ToLowerAscii(b));
}

}  // namespace dimqr::text
