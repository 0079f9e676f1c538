// Statistical regression gate for bench trajectories.
//
// The comparator judges `candidate vs baseline` per (bench, metric) with a
// percentile-bootstrap confidence interval over the ratio of means:
// resample each side's entries with replacement, take the resampled mean
// ratio, and read the CI off the resampled distribution. A regression is
// declared only when the point ratio exceeds the threshold AND the CI
// excludes 1.0 — a single noisy run cannot trip the gate when repeated
// runs disagree, while deterministic counters (pinned seeds) gate tightly.
// With one entry per side the CI collapses to the point estimate, so a
// committed single-run baseline still gates (ratio > threshold alone).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "ftlbench/trajectory.hpp"

namespace ftl::benchtool {

struct BootstrapCi {
  double ratio = 1.0;  // mean(candidate) / mean(baseline)
  double lo = 1.0;     // CI lower bound on the ratio
  double hi = 1.0;     // CI upper bound
};

/// Percentile-bootstrap CI for mean(candidate)/mean(baseline). Both inputs
/// must be non-empty. A zero baseline mean yields +Inf ratios (0/0 counts
/// as 1). Deterministic in `seed`.
[[nodiscard]] BootstrapCi bootstrap_ratio(const std::vector<double>& baseline,
                                          const std::vector<double>& candidate,
                                          std::size_t resamples,
                                          double confidence,
                                          std::uint64_t seed);

struct CompareOptions {
  /// Metric keys to gate on ("wall_time_s", "cpu_time_s", or counter
  /// names). Higher is worse for every key.
  std::vector<std::string> metrics = {"wall_time_s"};
  /// A candidate/baseline mean ratio beyond this regresses (2.0 = twice as
  /// slow). Must be > 1.
  double threshold = 1.25;
  double confidence = 0.95;
  std::size_t resamples = 2000;
  std::uint64_t seed = 1;
};

struct MetricComparison {
  std::string bench;
  std::string metric;
  std::size_t n_baseline = 0;
  std::size_t n_candidate = 0;
  BootstrapCi ci;
  bool regressed = false;  // ratio > threshold and CI excludes 1
  bool improved = false;   // ratio < 1/threshold and CI excludes 1

  /// Both sides had samples, so a verdict was possible.
  [[nodiscard]] bool compared() const {
    return n_baseline > 0 && n_candidate > 0;
  }
};

/// Compares one metric across two trajectories. Entries missing the metric
/// are skipped; when either side has no samples the comparison is returned
/// with n_* = 0 and no verdict.
[[nodiscard]] MetricComparison compare_metric(const Trajectory& baseline,
                                              const Trajectory& candidate,
                                              const std::string& metric,
                                              const CompareOptions& opts);

struct CompareReport {
  std::vector<MetricComparison> rows;
  [[nodiscard]] bool any_regressed() const {
    for (const MetricComparison& r : rows)
      if (r.regressed) return true;
    return false;
  }
};

/// Every requested metric of one trajectory pair.
[[nodiscard]] CompareReport compare_trajectories(const Trajectory& baseline,
                                                 const Trajectory& candidate,
                                                 const CompareOptions& opts);

/// Requested metrics that no report compared: no bench had samples of them
/// on both sides, so a gate on them checks nothing (say, a deleted or
/// renamed metric). In `metrics` order.
[[nodiscard]] std::vector<std::string> uncompared_metrics(
    const std::vector<CompareReport>& reports,
    const std::vector<std::string>& metrics);

}  // namespace ftl::benchtool
