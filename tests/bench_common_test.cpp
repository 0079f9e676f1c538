// bench::parse_args: flag parsing and the hardened flag/value pairing
// (negative numbers are values; unrelated dash tokens are not).
#include "bench_common.hpp"

#include <gtest/gtest.h>

#include <initializer_list>
#include <vector>

namespace ftl::bench {
namespace {

/// parse_args over a literal command line.
Options parse(std::initializer_list<const char*> args,
              std::uint64_t fallback_seed) {
  const std::vector<const char*> argv(args);
  return parse_args(static_cast<int>(argv.size()), argv.data(),
                    fallback_seed);
}

TEST(BenchParseArgs, DefaultsWhenNoFlags) {
  const Options opts = parse({"bench"}, 7);
  EXPECT_EQ(opts.seed, 7u);
  EXPECT_TRUE(opts.metrics_out.empty());
  EXPECT_TRUE(opts.trace_out.empty());
  EXPECT_TRUE(opts.prom_out.empty());
  EXPECT_EQ(opts.metrics_every_ms, 0u);
}

TEST(BenchParseArgs, ReadsAllOwnedFlags) {
  const Options opts =
      parse({"bench", "--seed", "123", "--metrics-out=m.json",
             "--metrics-every=50", "--prom-out=m.prom", "--trace-out",
             "t.json", "--profile-out=p.folded", "--profile-hz", "997"},
            7);
  EXPECT_EQ(opts.seed, 123u);
  EXPECT_EQ(opts.metrics_out, "m.json");
  EXPECT_EQ(opts.metrics_every_ms, 50u);
  EXPECT_EQ(opts.prom_out, "m.prom");
  EXPECT_EQ(opts.trace_out, "t.json");
  EXPECT_EQ(opts.profile_out, "p.folded");
  EXPECT_EQ(opts.profile_hz, 997);
}

TEST(BenchParseArgs, ProfileDefaults) {
  const Options opts = parse({"bench"}, 7);
  EXPECT_TRUE(opts.profile_out.empty());
  EXPECT_EQ(opts.profile_hz, 99);
}

TEST(BenchParseArgs, NegativeNumberValueIsConsumedWithItsFlag) {
  const Options opts = parse({"bench", "--seed", "-5"}, 7);
  EXPECT_EQ(opts.seed, static_cast<std::uint64_t>(-5));
}

TEST(BenchParseArgs, DashTokenThatIsNotANumberIsNotSwallowed) {
  // "-v" is not a value, so --seed is bare and falls back.
  const Options opts = parse({"bench", "--seed", "-v"}, 7);
  EXPECT_EQ(opts.seed, 7u);
}

TEST(BenchParseArgs, FlagFollowedByFlagDoesNotConsume) {
  const Options opts = parse({"bench", "--seed", "--metrics-out=m.json"}, 7);
  EXPECT_EQ(opts.seed, 7u);  // bare --seed has no value: fallback
  EXPECT_EQ(opts.metrics_out, "m.json");
}

TEST(BenchParseArgs, SeedAtEndOfArgv) {
  const Options opts = parse({"bench", "--seed"}, 9);
  EXPECT_EQ(opts.seed, 9u);
}

TEST(BenchParseArgs, EqualsFormNegativeSeed) {
  const Options opts = parse({"bench", "--seed=-1"}, 7);
  EXPECT_EQ(opts.seed, static_cast<std::uint64_t>(-1));
}

TEST(BenchParseArgs, GarbageSeedDiesLoudly) {
  // A mistyped `--seed 42x` must abort, not silently truncate: a bench run
  // recorded under the wrong seed poisons the trajectory history.
  EXPECT_DEATH((void)parse({"bench", "--seed", "42x"}, 7),
               "invalid value for flag --seed");
  EXPECT_DEATH((void)parse({"bench", "--metrics-every=soon"}, 7),
               "invalid value for flag --metrics-every");
}

TEST(ObsSessionSeries, SeriesPathDerivation) {
  Options with_metrics;
  with_metrics.metrics_out = "out/report.json";
  EXPECT_EQ(ObsSession::series_path_for("bench_x", with_metrics),
            "out/report.json.series");
  EXPECT_EQ(ObsSession::series_path_for("bench_x", Options{}),
            "bench_x.series.jsonl");
}

}  // namespace
}  // namespace ftl::bench
