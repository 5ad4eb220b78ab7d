#ifndef DIMQR_TEXT_LEVENSHTEIN_H_
#define DIMQR_TEXT_LEVENSHTEIN_H_

#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

/// \file levenshtein.h
/// Edit distance for the unit-linking candidate model (Section III-B1).
///
/// The paper scores the probability that a unit mention m refers to a unit
/// entity u by string similarity: Pr(u|m) = sim(u, m). We expose the raw
/// distance plus a normalized similarity in [0, 1] derived from it.

namespace dimqr::text {

/// \brief Levenshtein edit distance over UTF-8 code points (insert, delete,
/// substitute all cost 1).
std::size_t LevenshteinDistance(std::string_view a, std::string_view b);

/// \brief The same distance over code points already packed by
/// PackedCodePoints. `row` is the DP's scratch row, so a caller scoring
/// many pairs (the linker, once per KB surface) allocates it once.
std::size_t LevenshteinDistance(std::span<const std::uint32_t> a,
                                std::span<const std::uint32_t> b,
                                std::vector<std::size_t>& row);

/// \brief Normalized similarity: 1 - distance / max(|a|, |b|), over code
/// points. Empty vs empty is 1. Monotone: identical strings score 1,
/// disjoint strings approach 0.
double LevenshteinSimilarity(std::string_view a, std::string_view b);

/// \brief Case-insensitive (ASCII) variant of LevenshteinSimilarity; the
/// candidate generator uses this so "KM" still matches "km".
double LevenshteinSimilarityIgnoreCase(std::string_view a, std::string_view b);

}  // namespace dimqr::text

#endif  // DIMQR_TEXT_LEVENSHTEIN_H_
