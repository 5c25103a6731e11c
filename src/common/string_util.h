#ifndef CDI_COMMON_STRING_UTIL_H_
#define CDI_COMMON_STRING_UTIL_H_

#include <cstdint>
#include <limits>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "common/status.h"

namespace cdi {

/// Returns `s` with ASCII letters lowered.
std::string ToLower(std::string_view s);

/// Returns `s` without leading/trailing whitespace.
std::string Trim(std::string_view s);

/// Splits `s` on `delim`; keeps empty fields.
std::vector<std::string> Split(std::string_view s, char delim);

/// Joins `parts` with `sep`.
std::string Join(const std::vector<std::string>& parts, std::string_view sep);

/// True if `s` starts with `prefix`.
bool StartsWith(std::string_view s, std::string_view prefix);

/// True if `s` ends with `suffix`.
bool EndsWith(std::string_view s, std::string_view suffix);

/// True if `needle` occurs in `haystack` ignoring ASCII case.
bool ContainsIgnoreCase(std::string_view haystack, std::string_view needle);

/// Canonicalizes an entity name for matching: lower-cases, trims, collapses
/// runs of whitespace/punctuation to single underscores.
std::string NormalizeEntityName(std::string_view s);

/// Levenshtein edit distance.
std::size_t EditDistance(std::string_view a, std::string_view b);

/// Jaro-Winkler similarity in [0, 1]; 1 means equal strings.
double JaroWinkler(std::string_view a, std::string_view b);

/// Formats a double with `precision` significant decimal digits after the
/// point (fixed notation), e.g. FormatDouble(0.456789, 2) == "0.46".
std::string FormatDouble(double v, int precision);

/// Strict unsigned decimal for the value of the named `field` (a protocol
/// argument or command-line flag): digits only — no sign, blank, fraction
/// or exponent — and at most `max`, with no wraparound. InvalidArgument
/// names the field and the offending value.
Result<std::uint64_t> ParseUnsigned(
    std::string_view field, std::string_view value,
    std::uint64_t max = std::numeric_limits<std::uint64_t>::max());

/// Strict finite number (strtod syntax) for the value of `field`: the
/// whole value must parse, and nan/inf are rejected.
Result<double> ParseFiniteDouble(std::string_view field,
                                 std::string_view value);

/// Flag parsing: `value` into *out — ParseUnsigned bounded by `max` and
/// by T's range for integer T, ParseFiniteDouble for double. *out is
/// untouched on error.
template <typename T>
Status ParseNumber(
    std::string_view field, std::string_view value, T* out,
    std::uint64_t max = std::numeric_limits<std::uint64_t>::max()) {
  if constexpr (std::is_floating_point_v<T>) {
    CDI_ASSIGN_OR_RETURN(*out, ParseFiniteDouble(field, value));
  } else {
    const auto type_max =
        static_cast<std::uint64_t>(std::numeric_limits<T>::max());
    CDI_ASSIGN_OR_RETURN(
        const std::uint64_t v,
        ParseUnsigned(field, value, max < type_max ? max : type_max));
    *out = static_cast<T>(v);
  }
  return Status::OK();
}

}  // namespace cdi

#endif  // CDI_COMMON_STRING_UTIL_H_
