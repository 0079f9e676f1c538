#include "ftlbench/compare.hpp"

#include <algorithm>
#include <limits>

#include "util/assert.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace ftl::benchtool {

namespace {

double ratio_of(double baseline_mean, double candidate_mean) {
  if (baseline_mean == 0.0) {
    return candidate_mean == 0.0 ? 1.0
                                 : std::numeric_limits<double>::infinity();
  }
  return candidate_mean / baseline_mean;
}

double resampled_mean(const std::vector<double>& xs, util::Rng& rng) {
  double sum = 0.0;
  for (std::size_t i = 0; i < xs.size(); ++i)
    sum += xs[rng.uniform_int(static_cast<std::uint64_t>(xs.size()))];
  return sum / static_cast<double>(xs.size());
}

}  // namespace

BootstrapCi bootstrap_ratio(const std::vector<double>& baseline,
                            const std::vector<double>& candidate,
                            std::size_t resamples, double confidence,
                            std::uint64_t seed) {
  FTL_ASSERT_MSG(!baseline.empty() && !candidate.empty(),
                 "bootstrap_ratio needs samples on both sides");
  FTL_ASSERT_MSG(confidence > 0.0 && confidence < 1.0,
                 "confidence must be in (0, 1)");

  BootstrapCi ci;
  ci.ratio = ratio_of(util::mean_of(baseline), util::mean_of(candidate));

  // Degenerate resampling (single samples, or resamples == 0) collapses the
  // CI to the point estimate; skip the work.
  if (resamples == 0 || (baseline.size() == 1 && candidate.size() == 1)) {
    ci.lo = ci.hi = ci.ratio;
    return ci;
  }

  util::Rng rng(seed);
  std::vector<double> ratios;
  ratios.reserve(resamples);
  for (std::size_t b = 0; b < resamples; ++b) {
    ratios.push_back(
        ratio_of(resampled_mean(baseline, rng), resampled_mean(candidate, rng)));
  }
  const double alpha = 1.0 - confidence;
  ci.lo = util::percentile(ratios, alpha / 2.0);
  ci.hi = util::percentile(std::move(ratios), 1.0 - alpha / 2.0);
  return ci;
}

MetricComparison compare_metric(const Trajectory& baseline,
                                const Trajectory& candidate,
                                const std::string& metric,
                                const CompareOptions& opts) {
  MetricComparison cmp;
  cmp.bench = candidate.bench.empty() ? baseline.bench : candidate.bench;
  cmp.metric = metric;

  std::vector<double> base, cand;
  for (const TrajectoryEntry& e : baseline.entries)
    if (const std::optional<double> v = e.metric(metric)) base.push_back(*v);
  for (const TrajectoryEntry& e : candidate.entries)
    if (const std::optional<double> v = e.metric(metric)) cand.push_back(*v);
  cmp.n_baseline = base.size();
  cmp.n_candidate = cand.size();
  if (base.empty() || cand.empty()) return cmp;  // no verdict without data

  cmp.ci = bootstrap_ratio(base, cand, opts.resamples, opts.confidence,
                           opts.seed);
  cmp.regressed = cmp.ci.ratio > opts.threshold && cmp.ci.lo > 1.0;
  cmp.improved = cmp.ci.ratio < 1.0 / opts.threshold && cmp.ci.hi < 1.0;
  return cmp;
}

CompareReport compare_trajectories(const Trajectory& baseline,
                                   const Trajectory& candidate,
                                   const CompareOptions& opts) {
  CompareReport report;
  for (const std::string& metric : opts.metrics)
    report.rows.push_back(compare_metric(baseline, candidate, metric, opts));
  return report;
}

std::vector<std::string> uncompared_metrics(
    const std::vector<CompareReport>& reports,
    const std::vector<std::string>& metrics) {
  std::vector<std::string> out;
  for (const std::string& metric : metrics) {
    bool seen = false;
    for (const CompareReport& report : reports)
      for (const MetricComparison& row : report.rows)
        seen = seen || (row.metric == metric && row.compared());
    if (!seen) out.push_back(metric);
  }
  return out;
}

}  // namespace ftl::benchtool
