// CPU-profile tooling for `ftlbench profile` / `ftlbench profile-diff`:
// parse FlameGraph folded stacks (what the benches' --profile-out and the
// daemon's /profile emit), aggregate per-frame self/total weight, and diff
// two profiles into a regression-style top-movers table.
//
// Folded format, one stack per line, root-first frames joined by ';':
//   main;run_stepped;LiveBroker::decide 42
// The trailing integer is the sample count for that exact stack.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace ftl::benchtool {

/// A parsed folded-stacks profile: unique stacks with their sample counts.
struct FoldedProfile {
  std::map<std::string, std::uint64_t> stacks;  // "a;b;c" -> samples
  std::uint64_t total_samples = 0;
};

/// Strict parse of folded-stacks text. Empty lines are skipped; any other
/// line must be `<stack> <count>` with a positive integer count. Returns
/// false and sets `error` on the first malformed line (1-based line number
/// included). Duplicate stacks accumulate.
[[nodiscard]] bool parse_folded(std::string_view text, FoldedProfile& out,
                                std::string& error);

/// Per-frame weight within one profile. `self` counts samples whose leaf
/// is this frame; `total` counts samples with the frame anywhere on the
/// stack (recursive frames count once per stack, so total <= the
/// profile's total_samples).
struct FrameStat {
  std::uint64_t self = 0;
  std::uint64_t total = 0;
};

/// Aggregates per-frame statistics over every stack in the profile.
[[nodiscard]] std::map<std::string, FrameStat> frame_stats(
    const FoldedProfile& profile);

/// One row of a profile diff: a frame's share of total profile weight on
/// each side (percent of that side's samples) and the movement between
/// them in percentage points.
struct FrameDelta {
  std::string frame;
  double base_pct = 0.0;  // 100 * total(frame) / total_samples, baseline
  double cand_pct = 0.0;  // same, candidate
  double delta_pp = 0.0;  // cand_pct - base_pct
};

/// Per-frame delta table over the union of frames, sorted by |delta_pp|
/// descending (ties by frame name, so the output is deterministic).
/// Normalizing to each side's own total makes profiles of different
/// lengths comparable: a frame that moved from 10% to 30% of CPU shows
/// +20pp regardless of sample counts.
[[nodiscard]] std::vector<FrameDelta> diff_profiles(const FoldedProfile& base,
                                                    const FoldedProfile& cand);

/// Configuration for running one bench binary under the profiler.
struct ProfiledRunConfig {
  std::string bench_dir;        ///< directory holding the bench binaries
  std::string bench;            ///< binary name, e.g. "bench_fig4_load_balancing"
  std::string out_path;         ///< --profile-out target
  int hz = 99;                  ///< --profile-hz
  bool has_seed = false;        ///< pass --seed?
  std::uint64_t seed = 42;
  std::string log_path;         ///< child stdout/stderr (empty = inherit)
};

/// Runs the bench under profiling via std::system. `error` is set when the
/// binary is missing, exits nonzero, or writes no profile output.
[[nodiscard]] bool run_bench_profiled(const ProfiledRunConfig& config,
                                      std::string& error);

}  // namespace ftl::benchtool
