#include "util/args.hpp"

#include <gtest/gtest.h>

namespace ftl::util {
namespace {

Args parse(std::initializer_list<const char*> argv) {
  std::vector<const char*> v(argv);
  return Args(static_cast<int>(v.size()), v.data());
}

TEST(Args, ProgramName) {
  const Args a = parse({"prog"});
  EXPECT_EQ(a.program(), "prog");
  EXPECT_TRUE(a.positional().empty());
}

TEST(Args, SpaceSeparatedValue) {
  const Args a = parse({"prog", "--servers", "86"});
  EXPECT_TRUE(a.has("servers"));
  EXPECT_EQ(a.get("servers", static_cast<long long>(0)), 86);
}

TEST(Args, EqualsSeparatedValue) {
  const Args a = parse({"prog", "--visibility=0.85"});
  EXPECT_DOUBLE_EQ(a.get("visibility", 0.0), 0.85);
}

TEST(Args, BooleanFlag) {
  const Args a = parse({"prog", "--verbose"});
  EXPECT_TRUE(a.get("verbose", false));
  EXPECT_FALSE(a.get("quiet", false));
  EXPECT_TRUE(a.get("quiet", true));
}

TEST(Args, ExplicitBooleanValues) {
  EXPECT_TRUE(parse({"p", "--x=true"}).get("x", false));
  EXPECT_TRUE(parse({"p", "--x=1"}).get("x", false));
  EXPECT_FALSE(parse({"p", "--x=false"}).get("x", true));
  EXPECT_FALSE(parse({"p", "--x=0"}).get("x", true));
}

TEST(Args, PositionalArguments) {
  const Args a = parse({"prog", "input.csv", "--n", "5", "out.csv"});
  ASSERT_EQ(a.positional().size(), 2u);
  EXPECT_EQ(a.positional()[0], "input.csv");
  EXPECT_EQ(a.positional()[1], "out.csv");
  EXPECT_EQ(a.get("n", static_cast<std::size_t>(0)), 5u);
}

TEST(Args, FlagFollowedByFlagIsBoolean) {
  const Args a = parse({"prog", "--fast", "--n", "3"});
  EXPECT_TRUE(a.get("fast", false));
  EXPECT_EQ(a.get("n", static_cast<long long>(0)), 3);
}

TEST(Args, StringDefaults) {
  const Args a = parse({"prog", "--mode=quantum"});
  EXPECT_EQ(a.get("mode", std::string("classical")), "quantum");
  EXPECT_EQ(a.get("policy", std::string("paper")), "paper");
}

TEST(Args, DoubleDefaults) {
  const Args a = parse({"prog"});
  EXPECT_DOUBLE_EQ(a.get("rate", 2.5), 2.5);
}

TEST(Args, LastOccurrenceWins) {
  const Args a = parse({"prog", "--n=1", "--n=2"});
  EXPECT_EQ(a.get("n", static_cast<long long>(0)), 2);
}

TEST(Args, BareDoubleDashDies) {
  EXPECT_DEATH(parse({"prog", "--"}), "not a valid flag");
}

TEST(IsValueToken, ClassifiesTokens) {
  EXPECT_TRUE(is_value_token("86"));
  EXPECT_TRUE(is_value_token("input.csv"));
  EXPECT_TRUE(is_value_token(""));
  EXPECT_TRUE(is_value_token("-"));  // stdin convention
  EXPECT_TRUE(is_value_token("-5"));
  EXPECT_TRUE(is_value_token("-0.25"));
  EXPECT_TRUE(is_value_token("-1e-3"));
  EXPECT_FALSE(is_value_token("-v"));
  EXPECT_FALSE(is_value_token("-abc"));
  EXPECT_FALSE(is_value_token("--flag"));
  EXPECT_FALSE(is_value_token("--seed"));
  EXPECT_FALSE(is_value_token("--"));
}

TEST(Args, NegativeNumberAsSeparateValue) {
  const Args a = parse({"prog", "--offset", "-5"});
  EXPECT_EQ(a.get("offset", static_cast<long long>(0)), -5);
  EXPECT_TRUE(a.positional().empty());
}

TEST(Args, NegativeDoubleAsSeparateValue) {
  const Args a = parse({"prog", "--bias", "-0.25", "--rate", "-1e-3"});
  EXPECT_DOUBLE_EQ(a.get("bias", 0.0), -0.25);
  EXPECT_DOUBLE_EQ(a.get("rate", 0.0), -1e-3);
}

TEST(Args, DashTokenIsNotSwallowedAsValue) {
  // "-v" is flag-shaped, not a number: --fast stays boolean and "-v"
  // becomes positional instead of being consumed as the value.
  const Args a = parse({"prog", "--fast", "-v"});
  EXPECT_TRUE(a.get("fast", false));
  ASSERT_EQ(a.positional().size(), 1u);
  EXPECT_EQ(a.positional()[0], "-v");
}

TEST(ParseDouble, StrictFullToken) {
  EXPECT_EQ(parse_double("0.85"), 0.85);
  EXPECT_EQ(parse_double("-1e-3"), -1e-3);
  EXPECT_EQ(parse_double("  1.5"), 1.5);  // strtod skips leading blanks
  EXPECT_FALSE(parse_double("bogus").has_value());
  EXPECT_FALSE(parse_double("1e5x").has_value());   // trailing junk
  EXPECT_FALSE(parse_double("1.5 ").has_value());   // trailing blank
  EXPECT_FALSE(parse_double("").has_value());
  EXPECT_FALSE(parse_double("1e999").has_value());  // overflow to inf
}

TEST(ParseLongLong, StrictFullToken) {
  EXPECT_EQ(parse_long_long("86"), 86);
  EXPECT_EQ(parse_long_long("-5"), -5);
  EXPECT_FALSE(parse_long_long("bogus").has_value());
  EXPECT_FALSE(parse_long_long("12abc").has_value());
  EXPECT_FALSE(parse_long_long("1.5").has_value());  // not an integer
  EXPECT_FALSE(parse_long_long("").has_value());
  // Out of range must fail, not silently saturate to LLONG_MAX/MIN.
  EXPECT_FALSE(parse_long_long("99999999999999999999").has_value());
  EXPECT_FALSE(parse_long_long("-99999999999999999999").has_value());
}

TEST(Args, GarbageDoubleValueDies) {
  // `--rate bogus` used to silently parse as 0.0 via strtod(nullptr).
  EXPECT_DEATH((void)parse({"prog", "--rate", "bogus"}).get("rate", 1.0),
               "invalid value for flag --rate");
  // `--rate 1e5x` used to silently truncate to 1e5.
  EXPECT_DEATH((void)parse({"prog", "--rate=1e5x"}).get("rate", 1.0),
               "invalid value for flag --rate");
}

TEST(Args, GarbageIntegerValueDies) {
  EXPECT_DEATH(
      (void)parse({"prog", "--n", "12abc"}).get("n", static_cast<long long>(0)),
      "invalid value for flag --n");
  EXPECT_DEATH((void)parse({"prog", "--n=99999999999999999999"})
                   .get("n", static_cast<long long>(0)),
               "invalid value for flag --n");
}

TEST(Args, NegativeSizeValueDies) {
  // `--servers -5` used to wrap to ~1.8e19 through the long-long cast.
  EXPECT_DEATH((void)parse({"prog", "--servers", "-5"})
                   .get("servers", static_cast<std::size_t>(4)),
               "non-negative");
  EXPECT_DEATH((void)parse({"prog", "--servers=bogus"})
                   .get("servers", static_cast<std::size_t>(4)),
               "invalid value for flag --servers");
}

TEST(Args, ValidValuesStillParseAfterHardening) {
  const Args a = parse({"prog", "--rate", "2.5e4", "--servers", "86"});
  EXPECT_DOUBLE_EQ(a.get("rate", 0.0), 2.5e4);
  EXPECT_EQ(a.get("servers", static_cast<std::size_t>(0)), 86u);
}

TEST(Args, FlagsNobodyReadsAreIgnored) {
  // There is no flag registry: an unknown or retired flag parses without
  // complaint and every flag that is read keeps working beside it.
  const Args a = parse({"prog", "--retired-knob", "200", "--typo=x",
                        "--servers", "86"});
  EXPECT_EQ(a.get("servers", static_cast<std::size_t>(0)), 86u);
  EXPECT_EQ(a.get("rate", 1.5), 1.5);
  EXPECT_TRUE(a.positional().empty());
}

TEST(Args, NegativeNumberPositional) {
  const Args a = parse({"prog", "-5", "file.csv"});
  ASSERT_EQ(a.positional().size(), 2u);
  EXPECT_EQ(a.positional()[0], "-5");
  EXPECT_EQ(a.positional()[1], "file.csv");
}

}  // namespace
}  // namespace ftl::util
