#include "text/string_util.h"

#include <cctype>

namespace dimqr::text {

std::string ToLowerAscii(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    out += static_cast<char>(
        std::tolower(static_cast<unsigned char>(c)));
  }
  return out;
}

bool EqualsIgnoreAsciiCase(std::string_view a, std::string_view b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (std::tolower(static_cast<unsigned char>(a[i])) !=
        std::tolower(static_cast<unsigned char>(b[i]))) {
      return false;
    }
  }
  return true;
}

std::string Trim(std::string_view s) {
  std::size_t b = 0, e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return std::string(s.substr(b, e - b));
}

std::vector<std::string> Split(std::string_view s, char sep) {
  std::vector<std::string> out;
  std::size_t start = 0;
  for (std::size_t i = 0; i <= s.size(); ++i) {
    if (i == s.size() || s[i] == sep) {
      out.emplace_back(s.substr(start, i - start));
      start = i + 1;
    }
  }
  return out;
}

std::vector<std::string> SplitWhitespace(std::string_view s) {
  std::vector<std::string> out;
  std::size_t i = 0;
  while (i < s.size()) {
    while (i < s.size() && std::isspace(static_cast<unsigned char>(s[i]))) ++i;
    std::size_t start = i;
    while (i < s.size() && !std::isspace(static_cast<unsigned char>(s[i]))) ++i;
    if (i > start) out.emplace_back(s.substr(start, i - start));
  }
  return out;
}

std::string Join(const std::vector<std::string>& parts, std::string_view sep) {
  std::string out;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) out += sep;
    out += parts[i];
  }
  return out;
}

bool StartsWith(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

bool EndsWith(std::string_view s, std::string_view suffix) {
  return s.size() >= suffix.size() &&
         s.substr(s.size() - suffix.size()) == suffix;
}

std::string ReplaceAll(std::string_view s, std::string_view from,
                       std::string_view to) {
  if (from.empty()) return std::string(s);
  std::string out;
  std::size_t i = 0;
  while (i < s.size()) {
    if (i + from.size() <= s.size() && s.substr(i, from.size()) == from) {
      out += to;
      i += from.size();
    } else {
      out += s[i++];
    }
  }
  return out;
}

std::vector<std::uint32_t> PackedCodePoints(std::string_view s) {
  std::vector<std::uint32_t> out;
  out.reserve(s.size());
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
    // Validate continuation bytes; fall back to a single byte on junk.
    if (i + len > s.size()) len = 1;
    for (std::size_t k = 1; k < len; ++k) {
      if ((static_cast<unsigned char>(s[i + k]) & 0xC0) != 0x80) {
        len = 1;
        break;
      }
    }
    std::uint32_t unit = 0;
    for (std::size_t k = 0; k < len; ++k) {
      unit = (unit << 8) | static_cast<unsigned char>(s[i + k]);
    }
    out.push_back(unit);
    i += len;
  }
  return out;
}

std::size_t Utf8Length(std::string_view s) {
  std::size_t count = 0;
  for (char c : s) {
    if ((static_cast<unsigned char>(c) & 0xC0) != 0x80) ++count;
  }
  return count;
}

}  // namespace dimqr::text
