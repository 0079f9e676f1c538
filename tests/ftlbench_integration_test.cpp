// End-to-end trajectory workflow: drive the real ftlbench binary against a
// real bench binary, then gate a synthetic regression. Registered under the
// `tier-slow` ctest label — it forks bench processes and takes seconds, so
// the fast suite skips it.
//
// Paths are injected by CMake:
//   FTL_FTLBENCH_BIN  — the ftlbench executable
//   FTL_BENCH_BIN_DIR — directory holding the bench_* binaries
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>

#include "ftlbench/trajectory.hpp"

namespace ftl::benchtool {
namespace {

namespace fs = std::filesystem;

// The quickest bench in the suite; --benchmark_filter=NONE skips its gbench
// loops, leaving just the section-2 table code.
constexpr const char* kBench = "bench_chsh_values";

class FtlbenchIntegration : public ::testing::Test {
 protected:
  void SetUp() override {
    root_ = fs::path(testing::TempDir()) /
            ("ftlbench_it_" + std::to_string(::getpid()));
    fs::remove_all(root_);
    fs::create_directories(root_);
  }
  void TearDown() override { fs::remove_all(root_); }

  /// Runs a shell command, returning its exit status (-1 on launch failure).
  static int run(const std::string& cmd) {
    const int rc = std::system(cmd.c_str());
    return rc < 0 ? -1 : WEXITSTATUS(rc);
  }

  std::string ftlbench_run_cmd(const std::string& out_dir,
                               std::size_t repetitions) const {
    return std::string(FTL_FTLBENCH_BIN) + " run --bench-dir=" +
           FTL_BENCH_BIN_DIR + " --out-dir=" + out_dir +
           " --benches=" + kBench + " --filter=NONE --seed=42" +
           " --repetitions=" + std::to_string(repetitions) + " >/dev/null";
  }

  fs::path root_;
};

TEST_F(FtlbenchIntegration, RunAppendsValidTrajectory) {
  const fs::path out = root_ / "base";
  ASSERT_EQ(run(ftlbench_run_cmd(out.string(), 2)), 0);

  const fs::path traj = out / trajectory_filename(kBench);
  ASSERT_TRUE(fs::exists(traj));
  const std::optional<Trajectory> t = load_trajectory(traj.string());
  ASSERT_TRUE(t.has_value());
  EXPECT_EQ(t->bench, kBench);
  ASSERT_EQ(t->entries.size(), 2u);
  for (const TrajectoryEntry& e : t->entries) {
    EXPECT_FALSE(e.git_rev.empty());
    EXPECT_EQ(e.utc.size(), 20u) << e.utc;  // 2026-08-06T00:00:00Z
    EXPECT_EQ(e.seed, 42u);
    EXPECT_GT(e.wall_time_s, 0.0);
  }
  // A second run appends rather than truncating.
  ASSERT_EQ(run(ftlbench_run_cmd(out.string(), 1)), 0);
  const std::optional<Trajectory> t2 = load_trajectory(traj.string());
  ASSERT_TRUE(t2.has_value());
  EXPECT_EQ(t2->entries.size(), 3u);
}

TEST_F(FtlbenchIntegration, CompareGateOnRealAndInjectedData) {
  const fs::path base = root_ / "base";
  const fs::path cand = root_ / "cand";
  ASSERT_EQ(run(ftlbench_run_cmd(base.string(), 1)), 0);
  ASSERT_EQ(run(ftlbench_run_cmd(cand.string(), 1)), 0);

  // Deterministic counters with a pinned seed: identical -> exit 0 even at
  // a tight threshold.
  const std::string compare_counters =
      std::string(FTL_FTLBENCH_BIN) + " compare " + base.string() + " " +
      cand.string() + " --metric=sdp.gram.solves --threshold=1.01 >/dev/null";
  EXPECT_EQ(run(compare_counters), 0);

  // Inject a 10x wall-time slowdown into the candidate trajectory: the gate
  // must trip (exit 1). The slowdown is set against the baseline run, not
  // the candidate's own wall time: the two real runs are only ~20 ms each,
  // and on a loaded machine (or on a binary's cold first exec) one of them
  // can take several times longer than the other.
  const std::optional<Trajectory> b =
      load_trajectory((base / trajectory_filename(kBench)).string());
  ASSERT_TRUE(b.has_value());
  ASSERT_EQ(b->entries.size(), 1u);
  const fs::path traj = cand / trajectory_filename(kBench);
  std::optional<Trajectory> t = load_trajectory(traj.string());
  ASSERT_TRUE(t.has_value());
  for (TrajectoryEntry& e : t->entries) {
    e.wall_time_s = 10.0 * b->entries.front().wall_time_s;
  }
  {
    std::ofstream out(traj.string(), std::ios::trunc);
    out << trajectory_json(*t) << '\n';
    ASSERT_TRUE(out);
  }
  const std::string compare_wall =
      std::string(FTL_FTLBENCH_BIN) + " compare " + base.string() + " " +
      cand.string() + " --metric=wall_time_s --threshold=1.5 >/dev/null";
  EXPECT_EQ(run(compare_wall), 1);

  // A gate on a metric neither side has compared nothing: exit 2, also
  // when it rides along with a metric that does compare.
  EXPECT_EQ(run(std::string(FTL_FTLBENCH_BIN) + " compare " + base.string() +
                " " + cand.string() +
                " --metric=sdp.gram.solves,no.such.metric >/dev/null"
                " 2>/dev/null"),
            2);

  // Usage errors exit 2.
  EXPECT_EQ(run(std::string(FTL_FTLBENCH_BIN) + " compare onlyone 2>/dev/null"),
            2);
  EXPECT_EQ(run(std::string(FTL_FTLBENCH_BIN) + " bogus 2>/dev/null"), 2);
}

TEST_F(FtlbenchIntegration, MetricsEveryProducesSnapshots) {
  // Acceptance: a ~200ms run with --metrics-every produces >= 2 snapshots.
  const fs::path report = root_ / "report.json";
  const std::string cmd = std::string(FTL_BENCH_BIN_DIR) + "/" + kBench +
                          " --seed 42 --metrics-out=" + report.string() +
                          " --metrics-every=50 --benchmark_filter=NONE" +
                          " >/dev/null 2>&1";
  ASSERT_EQ(run(cmd), 0);
  const fs::path series = report.string() + ".series";
  ASSERT_TRUE(fs::exists(series));
  std::ifstream in(series);
  std::size_t lines = 0;
  for (std::string line; std::getline(in, line);)
    if (!line.empty()) ++lines;
  EXPECT_GE(lines, 2u);
}

}  // namespace
}  // namespace ftl::benchtool
