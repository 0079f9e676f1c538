#include "util/stats.hpp"

#include <algorithm>
#include <cmath>

#include "util/assert.hpp"

namespace ftl::util {

void Accumulator::add(double x) {
  if (n_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

double Accumulator::mean() const { return n_ == 0 ? 0.0 : mean_; }

double Accumulator::variance() const {
  return n_ < 2 ? 0.0 : m2_ / static_cast<double>(n_ - 1);
}

double Accumulator::stddev() const { return std::sqrt(variance()); }

double Accumulator::sem() const {
  return n_ < 2 ? 0.0 : stddev() / std::sqrt(static_cast<double>(n_));
}

double Accumulator::ci95_halfwidth() const { return 1.96 * sem(); }

void Accumulator::merge(const Accumulator& other) {
  if (other.n_ == 0) return;
  if (n_ == 0) {
    *this = other;
    return;
  }
  const auto n1 = static_cast<double>(n_);
  const auto n2 = static_cast<double>(other.n_);
  const double delta = other.mean_ - mean_;
  const double total = n1 + n2;
  mean_ += delta * n2 / total;
  m2_ += other.m2_ + delta * delta * n1 * n2 / total;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
  n_ += other.n_;
}

namespace {

/// The percentile interpolation over a sorted sample of size n, whose r-th
/// smallest element is at(r).
template <typename At>
double interpolate(std::size_t n, double q, At&& at) {
  FTL_ASSERT(n > 0);
  FTL_ASSERT(q >= 0.0 && q <= 1.0);
  const double pos = q * static_cast<double>(n - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, n - 1);
  const double frac = pos - static_cast<double>(lo);
  return at(lo) * (1.0 - frac) + at(hi) * frac;
}

}  // namespace

double percentile(std::vector<double> xs, double q) {
  std::sort(xs.begin(), xs.end());
  return interpolate(xs.size(), q, [&](std::size_t r) { return xs[r]; });
}

double percentile_of_counts(const std::vector<std::uint64_t>& counts,
                            double q) {
  std::size_t n = 0;
  for (std::uint64_t c : counts) n += c;
  return interpolate(n, q, [&](std::size_t rank) {
    std::size_t v = 0;
    for (std::size_t seen = counts[0]; seen <= rank; seen += counts[v]) ++v;
    return static_cast<double>(v);
  });
}

double mean_of(const std::vector<double>& xs) {
  Accumulator acc;
  for (double x : xs) acc.add(x);
  return acc.mean();
}

double wilson_halfwidth(std::size_t successes, std::size_t trials) {
  if (trials == 0) return 0.0;
  const double z = 1.96;
  const auto n = static_cast<double>(trials);
  const double p = static_cast<double>(successes) / n;
  const double z2 = z * z;
  return (z / (1.0 + z2 / n)) *
         std::sqrt(p * (1.0 - p) / n + z2 / (4.0 * n * n));
}

}  // namespace ftl::util
