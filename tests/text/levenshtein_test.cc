#include "text/levenshtein.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "core/rng.h"
#include "kb/kb.h"
#include "text/string_util.h"

namespace dimqr::text {
namespace {

/// The DP LevenshteinDistance ran before code points were packed, kept as
/// the reference: one std::string per UTF-8 unit (an invalid byte is a unit
/// of its own), two rows.
std::vector<std::string> ReferenceUnits(std::string_view s) {
  std::vector<std::string> out;
  std::size_t i = 0;
  while (i < s.size()) {
    auto lead = static_cast<unsigned char>(s[i]);
    std::size_t len = 1;
    if (lead >= 0xF0) {
      len = 4;
    } else if (lead >= 0xE0) {
      len = 3;
    } else if (lead >= 0xC0) {
      len = 2;
    }
    if (i + len > s.size()) len = 1;
    for (std::size_t k = 1; k < len; ++k) {
      if ((static_cast<unsigned char>(s[i + k]) & 0xC0) != 0x80) {
        len = 1;
        break;
      }
    }
    out.emplace_back(s.substr(i, len));
    i += len;
  }
  return out;
}

std::size_t ReferenceDistance(std::string_view a, std::string_view b) {
  std::vector<std::string> ca = ReferenceUnits(a);
  std::vector<std::string> cb = ReferenceUnits(b);
  if (ca.empty()) return cb.size();
  if (cb.empty()) return ca.size();
  std::vector<std::size_t> prev(cb.size() + 1), cur(cb.size() + 1);
  for (std::size_t j = 0; j <= cb.size(); ++j) prev[j] = j;
  for (std::size_t i = 1; i <= ca.size(); ++i) {
    cur[0] = i;
    for (std::size_t j = 1; j <= cb.size(); ++j) {
      std::size_t sub = prev[j - 1] + (ca[i - 1] == cb[j - 1] ? 0 : 1);
      cur[j] = std::min({prev[j] + 1, cur[j - 1] + 1, sub});
    }
    std::swap(prev, cur);
  }
  return prev[cb.size()];
}

/// The denominator is Utf8Length, not the unit count: a lone continuation
/// byte is a DP unit but is not counted.
double ReferenceSimilarity(std::string_view a, std::string_view b) {
  std::size_t longest = std::max(Utf8Length(a), Utf8Length(b));
  if (longest == 0) return 1.0;
  return 1.0 - static_cast<double>(ReferenceDistance(a, b)) /
                   static_cast<double>(longest);
}

/// Seeded perturbations of KB surfaces: code-point edits, ASCII case flips,
/// CJK, and invalid UTF-8 spliced in at random byte offsets.
std::vector<std::string> PerturbedMentions(
    const std::vector<std::string>& surfaces) {
  const std::vector<std::string> inserts = {
      // CJK and valid multi-byte text.
      "千", "克", "米每秒", "µ", "°", "\xF0\x9F\x98\x80",
      // Lone continuation bytes.
      "\x80", "\xBF",
      // Truncated 2-, 3- and 4-byte sequences.
      "\xC3", "\xE5\x8D", "\xF0\x9F\x98",
      // 0xF8-0xFF leads, alone and with three continuation bytes.
      "\xF8", "\xFF", "\xFB\x80\x80\x80",
      // A lead byte followed by ASCII.
      "\xE5" "a", "\xC3" "m"};
  Rng rng(20240131);
  std::vector<std::string> mentions = {"", "km", "KM", "千克", "\x80\x80"};
  while (mentions.size() < 64) {
    std::string m = surfaces[rng.Index(surfaces.size())];
    const int edits = static_cast<int>(rng.UniformInt(1, 3));
    for (int e = 0; e < edits; ++e) {
      const std::size_t at = rng.Index(m.size() + 1);
      switch (rng.UniformInt(0, 4)) {
        case 0:  // insert an ASCII letter
          m.insert(at, 1, static_cast<char>('a' + rng.Index(26)));
          break;
        case 1:  // delete a byte
          if (at < m.size()) m.erase(at, 1);
          break;
        case 2:  // substitute an ASCII letter
          if (at < m.size()) m[at] = static_cast<char>('a' + rng.Index(26));
          break;
        case 3:  // flip ASCII case
          for (char& c : m) {
            if (c >= 'a' && c <= 'z' && rng.Bernoulli(0.5)) c -= 'a' - 'A';
          }
          break;
        default:  // splice in CJK or invalid UTF-8
          m.insert(at, inserts[rng.Index(inserts.size())]);
          break;
      }
    }
    mentions.push_back(std::move(m));
  }
  return mentions;
}

TEST(LevenshteinTest, PackedDpMatchesStringUnitReference) {
  std::shared_ptr<const kb::DimUnitKB> kb =
      kb::DimUnitKB::Build().ValueOrDie();
  const SymbolTable& lower = kb->lower_surfaces();
  std::vector<std::string> surfaces;
  for (std::uint32_t s = 1; s <= lower.size(); ++s) {
    surfaces.emplace_back(lower.Str(s));
  }
  const std::vector<std::string> mentions = PerturbedMentions(surfaces);
  for (const std::string& m : mentions) {
    const std::string lower_m = ToLowerAscii(m);
    for (const std::string& s : surfaces) {
      ASSERT_EQ(LevenshteinDistance(s, m), ReferenceDistance(s, m))
          << s << " | " << m;
      ASSERT_EQ(LevenshteinSimilarity(s, m), ReferenceSimilarity(s, m))
          << s << " | " << m;
      ASSERT_EQ(LevenshteinSimilarityIgnoreCase(m, s),
                ReferenceSimilarity(lower_m, ToLowerAscii(s)))
          << s << " | " << m;
    }
  }
}

TEST(LevenshteinTest, IdenticalStringsZeroDistance) {
  EXPECT_EQ(LevenshteinDistance("metre", "metre"), 0u);
  EXPECT_EQ(LevenshteinDistance("", ""), 0u);
}

TEST(LevenshteinTest, EmptyVsNonEmpty) {
  EXPECT_EQ(LevenshteinDistance("", "km"), 2u);
  EXPECT_EQ(LevenshteinDistance("km", ""), 2u);
}

TEST(LevenshteinTest, ClassicCases) {
  EXPECT_EQ(LevenshteinDistance("kitten", "sitting"), 3u);
  EXPECT_EQ(LevenshteinDistance("meter", "metre"), 2u);
  EXPECT_EQ(LevenshteinDistance("dyn/cm", "dyne/cm"), 1u);
}

TEST(LevenshteinTest, Symmetry) {
  EXPECT_EQ(LevenshteinDistance("gram", "gramme"),
            LevenshteinDistance("gramme", "gram"));
}

TEST(LevenshteinTest, TriangleInequality) {
  std::string a = "newton", b = "nwton", c = "newtons";
  EXPECT_LE(LevenshteinDistance(a, c),
            LevenshteinDistance(a, b) + LevenshteinDistance(b, c));
}

TEST(LevenshteinTest, CountsCodePointsNotBytes) {
  // Each CJK char is 3 bytes; distance must be in code points.
  EXPECT_EQ(LevenshteinDistance("千克", "千米"), 1u);
  EXPECT_EQ(LevenshteinDistance("千克", "克"), 1u);
}

TEST(LevenshteinTest, SimilarityRange) {
  EXPECT_DOUBLE_EQ(LevenshteinSimilarity("km", "km"), 1.0);
  EXPECT_DOUBLE_EQ(LevenshteinSimilarity("", ""), 1.0);
  EXPECT_DOUBLE_EQ(LevenshteinSimilarity("ab", "xy"), 0.0);
  double s = LevenshteinSimilarity("meter", "metre");
  EXPECT_GT(s, 0.5);
  EXPECT_LT(s, 1.0);
}

TEST(LevenshteinTest, SimilarityIgnoreCase) {
  EXPECT_DOUBLE_EQ(LevenshteinSimilarityIgnoreCase("KM", "km"), 1.0);
  EXPECT_LT(LevenshteinSimilarity("KM", "km"), 1.0);
}

TEST(LevenshteinTest, CloserStringMoreSimilar) {
  EXPECT_GT(LevenshteinSimilarity("kilometer", "kilometre"),
            LevenshteinSimilarity("kilometer", "gram"));
}

}  // namespace
}  // namespace dimqr::text
