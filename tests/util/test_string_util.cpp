#include "util/string_util.hpp"

#include <gtest/gtest.h>

#include <string>
#include <string_view>
#include <vector>

namespace bvl {
namespace {

TEST(ForEachToken, SkipsRunsOfWhitespace) {
  std::vector<std::string_view> toks;
  // CRLF line ends split like any other whitespace: no token keeps a '\r'.
  for_each_token("  foo\tbar \r\n baz\r", [&](std::string_view t) { toks.push_back(t); });
  ASSERT_EQ(toks.size(), 3u);
  EXPECT_EQ(toks[0], "foo");
  EXPECT_EQ(toks[1], "bar");
  EXPECT_EQ(toks[2], "baz");
}

TEST(ForEachToken, EmptyInputYieldsNothing) {
  int seen = 0;
  for_each_token("   ", [&](std::string_view) { ++seen; });
  EXPECT_EQ(seen, 0);
}

TEST(ForEachToken, VisitsInOrder) {
  std::vector<std::string> seen;
  for_each_token("one two three", [&](std::string_view t) { seen.emplace_back(t); });
  ASSERT_EQ(seen.size(), 3u);
  EXPECT_EQ(seen[2], "three");
}

TEST(ParseNonNegativeInt, AcceptsPlainDigits) {
  EXPECT_EQ(parse_non_negative_int("0"), 0);
  EXPECT_EQ(parse_non_negative_int("7"), 7);
  EXPECT_EQ(parse_non_negative_int("128"), 128);
}

TEST(ParseNonNegativeInt, RejectsEmptyAndSigns) {
  EXPECT_FALSE(parse_non_negative_int("").has_value());
  EXPECT_FALSE(parse_non_negative_int("-1").has_value());
  EXPECT_FALSE(parse_non_negative_int("+4").has_value());
}

TEST(ParseNonNegativeInt, RejectsTrailingJunkAndWhitespace) {
  EXPECT_FALSE(parse_non_negative_int("4x").has_value());
  EXPECT_FALSE(parse_non_negative_int(" 4").has_value());
  EXPECT_FALSE(parse_non_negative_int("4 ").has_value());
  EXPECT_FALSE(parse_non_negative_int("1.5").has_value());
}

TEST(ParseNonNegativeInt, RejectsOverflow) {
  EXPECT_EQ(parse_non_negative_int("2147483647"), 2147483647);
  EXPECT_FALSE(parse_non_negative_int("2147483648").has_value());
  EXPECT_FALSE(parse_non_negative_int("99999999999999999999").has_value());
}

TEST(MatchFlag, BareFormNeedsTheNextArg) {
  EXPECT_EQ(match_flag("--cache-dir", "--cache-dir", nullptr), FlagMatch::kNeedsValue);
  EXPECT_EQ(match_flag("--threads", "--threads", nullptr), FlagMatch::kNeedsValue);
}

TEST(MatchFlag, InlineFormYieldsTheValue) {
  std::string_view v;
  EXPECT_EQ(match_flag("--cache-dir=/tmp/c", "--cache-dir", &v), FlagMatch::kInlineValue);
  EXPECT_EQ(v, "/tmp/c");
  // An empty inline value still matches — the caller decides whether
  // "" is acceptable (bench::init rejects it for --cache-dir).
  EXPECT_EQ(match_flag("--cache-dir=", "--cache-dir", &v), FlagMatch::kInlineValue);
  EXPECT_EQ(v, "");
  // Values containing '=' are split only at the first one.
  EXPECT_EQ(match_flag("--json=a=b", "--json", &v), FlagMatch::kInlineValue);
  EXPECT_EQ(v, "a=b");
}

TEST(MatchFlag, PrefixesAndStrangersDoNotMatch) {
  // `--cache-dirx` must stay an unknown flag (exit 2 in the strict
  // binaries), not a sloppy match.
  EXPECT_EQ(match_flag("--cache-dirx", "--cache-dir", nullptr), FlagMatch::kNoMatch);
  EXPECT_EQ(match_flag("--cache", "--cache-dir", nullptr), FlagMatch::kNoMatch);
  EXPECT_EQ(match_flag("--threadsy=3", "--threads", nullptr), FlagMatch::kNoMatch);
  EXPECT_EQ(match_flag("cache-dir", "--cache-dir", nullptr), FlagMatch::kNoMatch);
  std::string_view v = "untouched";
  EXPECT_EQ(match_flag("--other=x", "--cache-dir", &v), FlagMatch::kNoMatch);
  EXPECT_EQ(v, "untouched");
}

}  // namespace
}  // namespace bvl
