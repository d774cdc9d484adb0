#include "util/parse.hpp"

#include <cerrno>
#include <cstdlib>
#include <iostream>

namespace stcache {

bool parse_u64(const char* s, std::uint64_t& out) {
  if (s == nullptr || *s < '0' || *s > '9') return false;
  errno = 0;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (errno != 0 || *end != '\0') return false;
  out = v;
  return true;
}

bool parse_flag_u64(const char* flag, const char* value,
                    std::uint64_t min_value, std::uint64_t max_value,
                    std::uint64_t& out) {
  std::uint64_t v = 0;
  if (parse_u64(value, v) && v >= min_value && v <= max_value) {
    out = v;
    return true;
  }
  std::cerr << "invalid value for " << flag << ": '" << value
            << "' (expected an integer in " << min_value << ".." << max_value
            << ")\n";
  return false;
}

}  // namespace stcache
