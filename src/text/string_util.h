#ifndef DIMQR_TEXT_STRING_UTIL_H_
#define DIMQR_TEXT_STRING_UTIL_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

/// \file string_util.h
/// Small string helpers shared across the text pipeline. ASCII-aware case
/// folding (unit symbols are case-sensitive in general — "mW" vs "MW" — so
/// folding is always an explicit caller choice), trimming, splitting, and
/// UTF-8 code-point segmentation for mixed Chinese/English unit text.

namespace dimqr::text {

/// ASCII lowercase copy (non-ASCII bytes pass through untouched).
std::string ToLowerAscii(std::string_view s);

/// True iff the strings are equal after ASCII case folding.
bool EqualsIgnoreAsciiCase(std::string_view a, std::string_view b);

/// Copy with leading/trailing ASCII whitespace removed.
std::string Trim(std::string_view s);

/// Splits on a single character; empty fields are kept.
std::vector<std::string> Split(std::string_view s, char sep);

/// Splits on runs of ASCII whitespace; empty fields are dropped.
std::vector<std::string> SplitWhitespace(std::string_view s);

/// Joins with a separator.
std::string Join(const std::vector<std::string>& parts, std::string_view sep);

/// True iff `s` starts with / ends with the given prefix/suffix.
bool StartsWith(std::string_view s, std::string_view prefix);
bool EndsWith(std::string_view s, std::string_view suffix);

/// Replaces every occurrence of `from` (non-empty) with `to`.
std::string ReplaceAll(std::string_view s, std::string_view from,
                       std::string_view to);

/// \brief Segments a UTF-8 string into code points, each packed into one
/// integer: its bytes, lead byte highest ("a" is 0x61, "千" is 0xE58D83).
/// Invalid bytes are single-byte units. A multi-byte unit's lead byte is at
/// least 0xC0, so 1-, 2-, 3- and 4-byte units land in disjoint ranges and
/// two units are equal iff their byte sequences are.
std::vector<std::uint32_t> PackedCodePoints(std::string_view s);

/// Number of UTF-8 code points in the string.
std::size_t Utf8Length(std::string_view s);

}  // namespace dimqr::text

#endif  // DIMQR_TEXT_STRING_UTIL_H_
