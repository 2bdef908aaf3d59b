// Small string utilities used by the rule/config parsers.
//
// Every helper classifies bytes by explicit ASCII tests rather than
// <cctype>, whose answers for bytes >= 0x80 follow the process locale: an
// embedder's setlocale() must not change what the HTTP, policy-DSL or rule
// grammars accept. The results equal the C locale's.
#pragma once

#include <string>
#include <string_view>
#include <vector>

namespace iotsec {

/// The C locale's isspace(): ' ', '\t', '\n', '\v', '\f', '\r'.
constexpr bool IsAsciiSpace(char c) {
  return c == ' ' || (c >= '\t' && c <= '\r');
}

/// The C locale's tolower(): 'A'-'Z' fold, every other byte is kept.
constexpr char AsciiToLower(char c) {
  return c >= 'A' && c <= 'Z' ? static_cast<char>(c - 'A' + 'a') : c;
}

/// Splits `s` on `sep`, keeping empty fields.
std::vector<std::string> Split(std::string_view s, char sep);

/// Splits on any whitespace run, dropping empty fields.
std::vector<std::string> SplitWhitespace(std::string_view s);

/// Removes leading and trailing whitespace.
std::string_view Trim(std::string_view s);

/// Case-insensitive ASCII comparison.
bool EqualsIgnoreCase(std::string_view a, std::string_view b);

bool StartsWith(std::string_view s, std::string_view prefix);
bool EndsWith(std::string_view s, std::string_view suffix);

/// Lowercases ASCII characters.
std::string ToLower(std::string_view s);

/// Parses a non-negative integer; returns false on any malformed input.
bool ParseUint(std::string_view s, std::uint64_t& out);

/// Joins the parts with `sep`.
std::string Join(const std::vector<std::string>& parts, std::string_view sep);

/// The contents of a JSON string literal holding `s`: escapes '"', '\\'
/// and every byte below 0x20. The one escaper behind every JSON writer.
std::string JsonEscape(std::string_view s);

}  // namespace iotsec
