/**
 * @file
 * Checked number parsing for command-line flags, spec strings and
 * environment variables.
 *
 * Both parsers consume the whole text or fail, so "2x" is an error
 * rather than 2. Callers own the range checks and the diagnostics.
 */

#ifndef PRISM_COMMON_PARSE_HH
#define PRISM_COMMON_PARSE_HH

#include <charconv>
#include <cstdint>
#include <cstdlib>
#include <string>
#include <string_view>

namespace prism
{

/**
 * Parse @p text as a base-10 unsigned integer: digits only, with no
 * sign, space or suffix, so "-1" fails rather than wrapping.
 * @return false (leaving @p out unchanged) when @p text is empty,
 * is not all digits, or exceeds 2^64 - 1.
 */
inline bool
parseU64(std::string_view text, std::uint64_t &out)
{
    const char *end = text.data() + text.size();
    const auto [ptr, ec] = std::from_chars(text.data(), end, out);
    return ec == std::errc() && ptr == end;
}

/**
 * Parse the whole of @p text as a double (strtod syntax, so "inf"
 * and "nan" parse; callers that need a finite value check it).
 * @return false when @p text is empty or has trailing characters.
 */
inline bool
parseDouble(std::string_view text, double &out)
{
    const std::string buf(text);
    char *end = nullptr;
    out = std::strtod(buf.c_str(), &end);
    return !buf.empty() && end == buf.c_str() + buf.size();
}

} // namespace prism

#endif // PRISM_COMMON_PARSE_HH
