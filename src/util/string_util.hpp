// Small string helpers used by the Grep/WordCount tokenizers and the
// bench flag parsers. Kept allocation-light: tokenization walks
// string_views.
#pragma once

#include <optional>
#include <string_view>

namespace bvl {

/// Calls `fn(token)` per whitespace-separated token without building a
/// vector — the hot path for WordCount over large splits.
template <typename Fn>
void for_each_token(std::string_view s, Fn&& fn) {
  std::size_t i = 0;
  while (i < s.size()) {
    while (i < s.size() && (s[i] == ' ' || s[i] == '\t' || s[i] == '\n' || s[i] == '\r')) ++i;
    std::size_t start = i;
    while (i < s.size() && !(s[i] == ' ' || s[i] == '\t' || s[i] == '\n' || s[i] == '\r')) ++i;
    if (i > start) fn(s.substr(start, i - start));
  }
}

/// Strict base-10 parse of a non-negative int for flag values.
/// Rejects empty strings, signs, whitespace, trailing junk and
/// overflow — nullopt instead of atoi's silent 0.
std::optional<int> parse_non_negative_int(std::string_view s);

/// How one argv entry relates to a `--flag VALUE` / `--flag=VALUE`
/// option (the convention every bench binary follows).
enum class FlagMatch {
  kNoMatch,      ///< not this flag (including `--flagsuffix` variants)
  kNeedsValue,   ///< bare `--flag`: the value is the NEXT argv entry
  kInlineValue,  ///< `--flag=VALUE`: `*value` holds VALUE (may be empty)
};

/// Matches `arg` against `flag` (e.g. "--cache-dir"). On kInlineValue
/// the view after '=' is written to `*value` when `value` is non-null;
/// otherwise `*value` is left untouched.
FlagMatch match_flag(std::string_view arg, std::string_view flag, std::string_view* value);

}  // namespace bvl
