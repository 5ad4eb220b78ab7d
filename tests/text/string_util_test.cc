#include "text/string_util.h"

#include <gtest/gtest.h>

namespace dimqr::text {
namespace {

TEST(StringUtilTest, ToLowerAscii) {
  EXPECT_EQ(ToLowerAscii("KiloMETRE"), "kilometre");
  EXPECT_EQ(ToLowerAscii("m/s^2"), "m/s^2");
  EXPECT_EQ(ToLowerAscii("千克ABC"), "千克abc");
}

TEST(StringUtilTest, EqualsIgnoreAsciiCase) {
  EXPECT_TRUE(EqualsIgnoreAsciiCase("KM", "km"));
  EXPECT_TRUE(EqualsIgnoreAsciiCase("", ""));
  EXPECT_FALSE(EqualsIgnoreAsciiCase("km", "kmh"));
  EXPECT_FALSE(EqualsIgnoreAsciiCase("mw", "mv"));
}

TEST(StringUtilTest, Trim) {
  EXPECT_EQ(Trim("  hello \t\n"), "hello");
  EXPECT_EQ(Trim("x"), "x");
  EXPECT_EQ(Trim("   "), "");
  EXPECT_EQ(Trim(""), "");
}

TEST(StringUtilTest, SplitKeepsEmptyFields) {
  std::vector<std::string> parts = Split("a,,b,", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "");
  EXPECT_EQ(parts[2], "b");
  EXPECT_EQ(parts[3], "");
}

TEST(StringUtilTest, SplitWhitespaceDropsEmpty) {
  std::vector<std::string> parts = SplitWhitespace("  a \t b\nc ");
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[2], "c");
}

TEST(StringUtilTest, JoinRoundTripsSplit) {
  std::vector<std::string> parts = {"x", "y", "z"};
  EXPECT_EQ(Join(parts, "|"), "x|y|z");
  EXPECT_EQ(Split(Join(parts, "|"), '|'), parts);
  EXPECT_EQ(Join({}, ","), "");
}

TEST(StringUtilTest, StartsEndsWith) {
  EXPECT_TRUE(StartsWith("kilometre", "kilo"));
  EXPECT_FALSE(StartsWith("m", "milli"));
  EXPECT_TRUE(EndsWith("metre", "tre"));
  EXPECT_FALSE(EndsWith("m", "metre"));
}

TEST(StringUtilTest, ReplaceAll) {
  EXPECT_EQ(ReplaceAll("1 km and 2 km", "km", "mile"), "1 mile and 2 mile");
  EXPECT_EQ(ReplaceAll("aaa", "aa", "b"), "ba");
  EXPECT_EQ(ReplaceAll("x", "", "y"), "x");
}

TEST(StringUtilTest, PackedCodePointsSegmentsMixedText) {
  std::vector<std::uint32_t> cps = PackedCodePoints("a千克b");
  ASSERT_EQ(cps.size(), 4u);
  EXPECT_EQ(cps[0], 0x61u);      // "a"
  EXPECT_EQ(cps[1], 0xE58D83u);  // "千"
  EXPECT_EQ(cps[2], 0xE5858Bu);  // "克"
  EXPECT_EQ(cps[3], 0x62u);      // "b"
}

TEST(StringUtilTest, PackedCodePointsSurvivesInvalidBytes) {
  std::string junk = "a\xC3";
  std::vector<std::uint32_t> cps = PackedCodePoints(junk);
  EXPECT_EQ(cps.size(), 2u);
}

TEST(StringUtilTest, Utf8Length) {
  EXPECT_EQ(Utf8Length("abc"), 3u);
  EXPECT_EQ(Utf8Length("千克"), 2u);
  EXPECT_EQ(Utf8Length(""), 0u);
  EXPECT_EQ(Utf8Length("a千b"), 3u);
}

}  // namespace
}  // namespace dimqr::text
