// ftlbench trajectory store + bootstrap comparator unit tests.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "ftlbench/compare.hpp"
#include "ftlbench/trajectory.hpp"
#include "util/rng.hpp"

namespace ftl::benchtool {
namespace {

TrajectoryEntry entry(double wall, double cpu = 0.0,
                      std::vector<std::pair<std::string, double>> counters = {}) {
  TrajectoryEntry e;
  e.git_rev = "deadbeef";
  e.utc = "2026-08-06T00:00:00Z";
  e.seed = 42;
  e.wall_time_s = wall;
  e.cpu_time_s = cpu;
  e.counters = std::move(counters);
  return e;
}

Trajectory trajectory(const std::string& bench, std::vector<double> walls) {
  Trajectory t;
  t.bench = bench;
  for (const double w : walls) t.entries.push_back(entry(w, w * 0.9));
  return t;
}

// --- trajectory store -----------------------------------------------------

TEST(Trajectory, FilenameDropsBenchPrefix) {
  EXPECT_EQ(trajectory_filename("bench_qnet_timing"),
            "BENCH_qnet_timing.json");
  EXPECT_EQ(trajectory_filename("custom_tool"), "BENCH_custom_tool.json");
}

TEST(Trajectory, JsonRoundTrip) {
  Trajectory t = trajectory("bench_x", {1.5, 2.5});
  t.entries[0].counters = {{"sdp.gram.solves", 3.0}, {"sim.events", 100.0}};
  const std::optional<Trajectory> back = parse_trajectory(trajectory_json(t));
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->bench, "bench_x");
  ASSERT_EQ(back->entries.size(), 2u);
  EXPECT_EQ(back->entries[0].git_rev, "deadbeef");
  EXPECT_EQ(back->entries[0].utc, "2026-08-06T00:00:00Z");
  EXPECT_EQ(back->entries[0].seed, 42u);
  EXPECT_DOUBLE_EQ(back->entries[0].wall_time_s, 1.5);
  ASSERT_EQ(back->entries[0].counters.size(), 2u);
  EXPECT_EQ(back->entries[0].counters[0].first, "sdp.gram.solves");
  EXPECT_DOUBLE_EQ(back->entries[0].counters[0].second, 3.0);
}

TEST(Trajectory, ParseRejectsBadInput) {
  EXPECT_FALSE(parse_trajectory("junk").has_value());
  EXPECT_FALSE(parse_trajectory("{}").has_value());
  EXPECT_FALSE(
      parse_trajectory(R"({"schema": "ftl.obs.bench_trajectory/v2",
                           "bench": "b", "entries": []})")
          .has_value());
  EXPECT_FALSE(
      parse_trajectory(R"({"schema": "ftl.obs.bench_trajectory/v1",
                           "bench": "b", "entries": [{}]})")
          .has_value());
  EXPECT_TRUE(
      parse_trajectory(R"({"schema": "ftl.obs.bench_trajectory/v1",
                           "bench": "b", "entries": []})")
          .has_value());
}

TEST(Trajectory, MetricLookup) {
  const TrajectoryEntry e = entry(1.5, 1.2, {{"sdp.gram.solves", 3.0}});
  EXPECT_DOUBLE_EQ(*e.metric("wall_time_s"), 1.5);
  EXPECT_DOUBLE_EQ(*e.metric("cpu_time_s"), 1.2);
  EXPECT_DOUBLE_EQ(*e.metric("sdp.gram.solves"), 3.0);
  EXPECT_FALSE(e.metric("lb.queue_depth").has_value());
}

TEST(Trajectory, CollapseCountersSumsLabelSets) {
  obs::Snapshot snap;
  snap.counters.push_back({"lb.chsh.rounds_won", {{"source", "a"}}, 10});
  snap.counters.push_back({"lb.chsh.rounds_won", {{"source", "b"}}, 5});
  snap.counters.push_back({"sim.events", {}, 7});
  const auto collapsed = collapse_counters(snap);
  ASSERT_EQ(collapsed.size(), 2u);
  EXPECT_EQ(collapsed[0].first, "lb.chsh.rounds_won");
  EXPECT_DOUBLE_EQ(collapsed[0].second, 15.0);
  EXPECT_EQ(collapsed[1].first, "sim.events");
  EXPECT_DOUBLE_EQ(collapsed[1].second, 7.0);
}

TEST(Trajectory, AppendEntryCreatesAndExtends) {
  const std::string path = testing::TempDir() + "traj_append_" +
                           std::to_string(::getpid()) + ".json";
  std::remove(path.c_str());
  EXPECT_TRUE(append_entry(path, "bench_x", entry(1.0)));
  EXPECT_TRUE(append_entry(path, "bench_x", entry(2.0)));
  const std::optional<Trajectory> t = load_trajectory(path);
  ASSERT_TRUE(t.has_value());
  EXPECT_EQ(t->bench, "bench_x");
  ASSERT_EQ(t->entries.size(), 2u);
  EXPECT_DOUBLE_EQ(t->entries[0].wall_time_s, 1.0);
  EXPECT_DOUBLE_EQ(t->entries[1].wall_time_s, 2.0);
  // History protection: a different bench name or corrupt file refuses.
  EXPECT_FALSE(append_entry(path, "bench_y", entry(3.0)));
  std::remove(path.c_str());
}

TEST(Trajectory, AppendRefusesCorruptFile) {
  const std::string path = testing::TempDir() + "traj_corrupt_" +
                           std::to_string(::getpid()) + ".json";
  {
    std::FILE* f = std::fopen(path.c_str(), "w");
    ASSERT_NE(f, nullptr);
    std::fputs("{not json", f);
    std::fclose(f);
  }
  EXPECT_FALSE(append_entry(path, "bench_x", entry(1.0)));
  std::remove(path.c_str());
}

// --- bootstrap CI ---------------------------------------------------------

TEST(BootstrapRatio, IdenticalSamplesGiveUnitRatio) {
  const std::vector<double> xs = {1.0, 1.1, 0.9, 1.05, 0.95};
  const BootstrapCi ci = bootstrap_ratio(xs, xs, 2000, 0.95, 1);
  EXPECT_DOUBLE_EQ(ci.ratio, 1.0);
  // Same vector on both sides still resamples independently, so the CI has
  // width — but it must bracket 1.
  EXPECT_LE(ci.lo, 1.0);
  EXPECT_GE(ci.hi, 1.0);
}

TEST(BootstrapRatio, ConstantSamplesCollapseCi) {
  const std::vector<double> ones(10, 1.0);
  const std::vector<double> twos(10, 2.0);
  const BootstrapCi ci = bootstrap_ratio(ones, twos, 500, 0.95, 1);
  EXPECT_DOUBLE_EQ(ci.ratio, 2.0);
  EXPECT_DOUBLE_EQ(ci.lo, 2.0);
  EXPECT_DOUBLE_EQ(ci.hi, 2.0);
}

TEST(BootstrapRatio, ShiftedDistributionExcludesOne) {
  // Baseline ~ U[0.9, 1.1], candidate ~ U[1.8, 2.2]: the CI must surround 2
  // and stay clear of 1.
  util::Rng rng(7);
  std::vector<double> base, cand;
  for (int i = 0; i < 40; ++i) {
    base.push_back(rng.uniform(0.9, 1.1));
    cand.push_back(rng.uniform(1.8, 2.2));
  }
  const BootstrapCi ci = bootstrap_ratio(base, cand, 4000, 0.95, 1);
  EXPECT_NEAR(ci.ratio, 2.0, 0.1);
  EXPECT_GT(ci.lo, 1.5);
  EXPECT_LT(ci.hi, 2.5);
  EXPECT_LT(ci.lo, ci.hi);
}

TEST(BootstrapRatio, OverlappingDistributionCoversOne) {
  // Two draws from the same noisy distribution: the CI must cover 1.
  util::Rng rng(11);
  std::vector<double> base, cand;
  for (int i = 0; i < 30; ++i) {
    base.push_back(rng.uniform(0.8, 1.2));
    cand.push_back(rng.uniform(0.8, 1.2));
  }
  const BootstrapCi ci = bootstrap_ratio(base, cand, 4000, 0.95, 1);
  EXPECT_LT(ci.lo, 1.0);
  EXPECT_GT(ci.hi, 1.0);
}

TEST(BootstrapRatio, SingleSamplesCollapseToPoint) {
  const BootstrapCi ci = bootstrap_ratio({1.0}, {2.0}, 2000, 0.95, 1);
  EXPECT_DOUBLE_EQ(ci.ratio, 2.0);
  EXPECT_DOUBLE_EQ(ci.lo, 2.0);
  EXPECT_DOUBLE_EQ(ci.hi, 2.0);
}

TEST(BootstrapRatio, ZeroBaseline) {
  const BootstrapCi both_zero = bootstrap_ratio({0.0}, {0.0}, 0, 0.95, 1);
  EXPECT_DOUBLE_EQ(both_zero.ratio, 1.0);
  const BootstrapCi blowup = bootstrap_ratio({0.0}, {1.0}, 0, 0.95, 1);
  EXPECT_TRUE(std::isinf(blowup.ratio));
}

TEST(BootstrapRatio, DeterministicInSeed) {
  util::Rng rng(3);
  std::vector<double> base, cand;
  for (int i = 0; i < 10; ++i) {
    base.push_back(rng.uniform(0.9, 1.1));
    cand.push_back(rng.uniform(0.9, 1.3));
  }
  const BootstrapCi a = bootstrap_ratio(base, cand, 1000, 0.95, 5);
  const BootstrapCi b = bootstrap_ratio(base, cand, 1000, 0.95, 5);
  EXPECT_DOUBLE_EQ(a.lo, b.lo);
  EXPECT_DOUBLE_EQ(a.hi, b.hi);
}

// --- regression gate ------------------------------------------------------

TEST(CompareMetric, DetectsInjectedTwoXSlowdown) {
  const Trajectory base = trajectory("bench_x", {1.0, 1.02, 0.98, 1.01, 0.99});
  const Trajectory slow = trajectory("bench_x", {2.0, 2.04, 1.96, 2.02, 1.98});
  CompareOptions opts;
  opts.threshold = 1.25;
  const MetricComparison cmp = compare_metric(base, slow, "wall_time_s", opts);
  EXPECT_TRUE(cmp.regressed);
  EXPECT_FALSE(cmp.improved);
  EXPECT_NEAR(cmp.ci.ratio, 2.0, 0.05);
  EXPECT_EQ(cmp.n_baseline, 5u);
  EXPECT_EQ(cmp.n_candidate, 5u);
}

TEST(CompareMetric, IdenticalTrajectoriesPass) {
  const Trajectory base = trajectory("bench_x", {1.0, 1.02, 0.98});
  CompareOptions opts;
  const CompareReport report = compare_trajectories(base, base, opts);
  ASSERT_EQ(report.rows.size(), 1u);
  EXPECT_FALSE(report.rows[0].regressed);
  EXPECT_FALSE(report.any_regressed());
}

TEST(CompareMetric, ImprovementIsNotARegression) {
  const Trajectory base = trajectory("bench_x", {2.0, 2.0, 2.0});
  const Trajectory fast = trajectory("bench_x", {1.0, 1.0, 1.0});
  CompareOptions opts;
  const MetricComparison cmp = compare_metric(base, fast, "wall_time_s", opts);
  EXPECT_FALSE(cmp.regressed);
  EXPECT_TRUE(cmp.improved);
}

TEST(CompareMetric, BelowThresholdSlowdownPasses) {
  const Trajectory base = trajectory("bench_x", {1.0, 1.0, 1.0});
  const Trajectory slight = trajectory("bench_x", {1.1, 1.1, 1.1});
  CompareOptions opts;  // threshold 1.25
  const MetricComparison cmp =
      compare_metric(base, slight, "wall_time_s", opts);
  EXPECT_FALSE(cmp.regressed);
}

TEST(CompareMetric, NoisyOverlapDoesNotTripTheGate) {
  // Point ratio slightly above threshold but the CI straddles 1: the gate
  // must hold fire (statistical, not point, decision).
  util::Rng rng(13);
  Trajectory base, cand;
  base.bench = cand.bench = "bench_x";
  for (int i = 0; i < 6; ++i) {
    base.entries.push_back(entry(rng.uniform(0.5, 1.5)));
    cand.entries.push_back(entry(rng.uniform(0.5, 1.7)));
  }
  CompareOptions opts;
  opts.threshold = 1.01;
  const MetricComparison cmp = compare_metric(base, cand, "wall_time_s", opts);
  if (cmp.ci.lo <= 1.0) EXPECT_FALSE(cmp.regressed);
}

TEST(CompareMetric, MissingMetricYieldsNoVerdict) {
  const Trajectory base = trajectory("bench_x", {1.0});
  const Trajectory cand = trajectory("bench_x", {2.0});
  CompareOptions opts;
  const MetricComparison cmp =
      compare_metric(base, cand, "qnet.pairs.delivered", opts);
  EXPECT_EQ(cmp.n_baseline, 0u);
  EXPECT_EQ(cmp.n_candidate, 0u);
  EXPECT_FALSE(cmp.regressed);
}

TEST(CompareMetric, UncomparedMetricsAreReported) {
  // Two benches: the counter exists on both sides of bench_a only, and the
  // deleted metric exists only in bench_b's baseline.
  Trajectory base_a, cand_a, base_b, cand_b;
  base_a.bench = cand_a.bench = "bench_a";
  base_b.bench = cand_b.bench = "bench_b";
  base_a.entries.push_back(entry(1.0, 0.9, {{"qnet.requests", 10.0}}));
  cand_a.entries.push_back(entry(1.0, 0.9, {{"qnet.requests", 10.0}}));
  base_b.entries.push_back(entry(1.0, 0.9, {{"sim.events.fired", 7.0}}));
  cand_b.entries.push_back(entry(1.0, 0.9));
  CompareOptions opts;
  opts.metrics = {"sim.events.fired", "qnet.requests", "wall_time_s",
                  "no.such.metric"};
  const std::vector<CompareReport> reports = {
      compare_trajectories(base_a, cand_a, opts),
      compare_trajectories(base_b, cand_b, opts)};
  EXPECT_FALSE(reports[1].rows[0].compared());
  EXPECT_TRUE(reports[0].rows[1].compared());
  EXPECT_EQ(uncompared_metrics(reports, opts.metrics),
            (std::vector<std::string>{"sim.events.fired", "no.such.metric"}));
  EXPECT_TRUE(uncompared_metrics(reports, {"qnet.requests"}).empty());
  EXPECT_EQ(uncompared_metrics({}, {"qnet.requests"}),
            std::vector<std::string>{"qnet.requests"});
}

TEST(CompareMetric, CounterDriftGates) {
  Trajectory base, cand;
  base.bench = cand.bench = "bench_x";
  base.entries.push_back(entry(1.0, 0.9, {{"sdp.gram.solves", 100.0}}));
  cand.entries.push_back(entry(1.0, 0.9, {{"sdp.gram.solves", 250.0}}));
  CompareOptions opts;
  opts.metrics = {"sdp.gram.solves"};
  opts.threshold = 1.5;
  const CompareReport report = compare_trajectories(base, cand, opts);
  ASSERT_EQ(report.rows.size(), 1u);
  EXPECT_TRUE(report.rows[0].regressed);
  EXPECT_TRUE(report.any_regressed());
}

}  // namespace
}  // namespace ftl::benchtool
