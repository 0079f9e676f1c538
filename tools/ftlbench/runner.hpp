// Drives the bench binaries for `ftlbench run`: executes each bench with a
// pinned seed and a temporary `--metrics-out` run report, measures child
// wall/CPU time, and folds the result into the bench's trajectory file.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "ftlbench/trajectory.hpp"

namespace ftl::benchtool {

struct RunConfig {
  /// Directory holding the bench binaries (e.g. build/bench).
  std::string bench_dir;
  /// Where BENCH_<name>.json trajectory files are appended.
  std::string out_dir = ".";
  /// Bench binaries to run; empty = every `bench_*` found in bench_dir.
  std::vector<std::string> benches;
  std::uint64_t seed = 42;
  /// Entries appended per bench (repeated runs feed the bootstrap CI).
  std::size_t repetitions = 1;
  /// Also pass --metrics-every=<ms> to each bench (0 = off).
  std::uint64_t metrics_every_ms = 0;
  bool verbose = false;
};

struct RunOutcome {
  std::string bench;
  bool ok = false;
  std::string error;  // non-empty when !ok
  TrajectoryEntry entry;
};

/// `bench_*` binaries in `bench_dir`, sorted by name.
[[nodiscard]] std::vector<std::string> discover_benches(
    const std::string& bench_dir);

/// Runs one bench once and builds its trajectory entry (not yet appended).
[[nodiscard]] RunOutcome run_bench_once(const RunConfig& config,
                                        const std::string& bench);

/// Runs every configured bench `repetitions` times, appending entries to
/// `<out_dir>/BENCH_<name>.json`. Logs per-run lines to `log`. Returns the
/// number of failed runs (0 = full success).
int run_all(const RunConfig& config, std::ostream& log);

}  // namespace ftl::benchtool
