// Small string helpers shared by the parser, printers and CLIs.
#pragma once

#include <functional>
#include <string>
#include <string_view>
#include <vector>

namespace owlcl {

/// Hash for std::string-keyed unordered containers that answers
/// std::string_view lookups without building a std::string (pair it with
/// std::equal_to<>).
struct StringHash {
  using is_transparent = void;
  std::size_t operator()(std::string_view s) const noexcept {
    return std::hash<std::string_view>{}(s);
  }
};

/// Returns `s` with leading and trailing ASCII whitespace removed.
std::string_view trim(std::string_view s);

/// Splits on `sep`, keeping empty fields.
std::vector<std::string_view> split(std::string_view s, char sep);

bool startsWith(std::string_view s, std::string_view prefix);
bool endsWith(std::string_view s, std::string_view suffix);

/// JSON string escaping (quotes, backslashes, control characters; invalid
/// UTF-8 bytes pass through untouched — emitted text mirrors the names the
/// ontology declared). Shared by the serve protocol responses and the
/// compiled taxonomy-snapshot descendant arrays.
std::string jsonEscape(std::string_view s);
/// Appends the escaped form to `out` (the allocation-free variant the
/// snapshot compiler and batch answer builder use).
void jsonEscapeInto(std::string_view s, std::string& out);

/// printf-style formatting into a std::string (GCC 12 lacks full std::format).
std::string strprintf(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

}  // namespace owlcl
