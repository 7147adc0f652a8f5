// Minimal string formatting helpers (GCC 12 lacks std::format).

#ifndef SKYWALKER_COMMON_STRINGS_H_
#define SKYWALKER_COMMON_STRINGS_H_

#include <cstdarg>
#include <string>
#include <string_view>
#include <vector>

namespace skywalker {

// printf-style formatting into a std::string.
std::string StrFormat(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

// Joins `parts` with `sep`.
std::string StrJoin(const std::vector<std::string>& parts, std::string_view sep);

// Splits on a single-character delimiter; keeps empty fields.
std::vector<std::string> StrSplit(std::string_view s, char delim);

// Levenshtein edit distance (insert/delete/substitute, all cost 1).
size_t EditDistance(std::string_view a, std::string_view b);

// Candidates within edit distance <= max(2, |name| / 4) of `name`, closest
// first (ties keep candidate order). Backs "unknown scenario" suggestions in
// the skybench CLI.
std::vector<std::string> SuggestClosest(
    std::string_view name, const std::vector<std::string>& candidates);

}  // namespace skywalker

#endif  // SKYWALKER_COMMON_STRINGS_H_
