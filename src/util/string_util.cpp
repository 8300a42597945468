#include "util/string_util.hpp"

#include <limits>

namespace bvl {

std::optional<int> parse_non_negative_int(std::string_view s) {
  if (s.empty()) return std::nullopt;
  long long value = 0;
  for (char c : s) {
    if (c < '0' || c > '9') return std::nullopt;
    value = value * 10 + (c - '0');
    if (value > std::numeric_limits<int>::max()) return std::nullopt;
  }
  return static_cast<int>(value);
}

FlagMatch match_flag(std::string_view arg, std::string_view flag, std::string_view* value) {
  if (arg == flag) return FlagMatch::kNeedsValue;
  if (arg.size() > flag.size() && arg.substr(0, flag.size()) == flag &&
      arg[flag.size()] == '=') {
    if (value != nullptr) *value = arg.substr(flag.size() + 1);
    return FlagMatch::kInlineValue;
  }
  return FlagMatch::kNoMatch;
}

}  // namespace bvl
