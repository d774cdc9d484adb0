// Strict numeric parsing for command-line flags.
#pragma once

#include <cstdint>

namespace stcache {

// Parses a whole token as a decimal unsigned integer: digits only — no
// sign, no whitespace, no trailing junk, no overflow. A tool that silently
// reads `--workers -1` as a huge count is a production incident, not a
// convenience. Returns false (leaving `out` untouched) on anything else.
bool parse_u64(const char* s, std::uint64_t& out);

// parse_u64 of `flag`'s value, accepted only within [min_value,
// max_value]. Otherwise prints "invalid value for FLAG: 'VALUE' (expected
// an integer in MIN..MAX)" to stderr and returns false; the tools then exit
// with status 2.
bool parse_flag_u64(const char* flag, const char* value,
                    std::uint64_t min_value, std::uint64_t max_value,
                    std::uint64_t& out);

}  // namespace stcache
