#include "obs/metrics.hpp"

#include <algorithm>

#include "util/assert.hpp"

namespace ftl::obs {

util::Histogram HistogramSample::to_histogram() const {
  return util::Histogram::from_counts(lo, hi, counts, underflow, overflow);
}

namespace real {

Histogram::Histogram(double lo, double hi, std::size_t bins)
    : lo_(lo),
      hi_(hi),
      bins_(bins),
      counts_(new std::atomic<std::uint64_t>[bins]) {
  FTL_ASSERT(hi > lo);
  FTL_ASSERT(bins > 0);
  for (std::size_t i = 0; i < bins_; ++i) {
    counts_[i].store(0, std::memory_order_relaxed);
  }
}

void Histogram::observe(double x, std::uint64_t n) noexcept {
  // Mirrors util::Histogram::add exactly: clamp + edge tallies.
  if (x < lo_) {
    underflow_.fetch_add(n, std::memory_order_relaxed);
    counts_[0].fetch_add(n, std::memory_order_relaxed);
    return;
  }
  if (x >= hi_) {
    overflow_.fetch_add(n, std::memory_order_relaxed);
    counts_[bins_ - 1].fetch_add(n, std::memory_order_relaxed);
    return;
  }
  const double frac = (x - lo_) / (hi_ - lo_);
  auto idx = static_cast<std::size_t>(frac * static_cast<double>(bins_));
  idx = std::min(idx, bins_ - 1);
  counts_[idx].fetch_add(n, std::memory_order_relaxed);
}

HistogramSample Histogram::sample() const {
  HistogramSample s;
  s.lo = lo_;
  s.hi = hi_;
  s.counts.resize(bins_);
  s.total = 0;
  for (std::size_t i = 0; i < bins_; ++i) {
    s.counts[i] = counts_[i].load(std::memory_order_relaxed);
    s.total += s.counts[i];
  }
  s.underflow = underflow_.load(std::memory_order_relaxed);
  s.overflow = overflow_.load(std::memory_order_relaxed);
  return s;
}

util::Histogram Histogram::snapshot() const { return sample().to_histogram(); }

void Histogram::reset() noexcept {
  for (std::size_t i = 0; i < bins_; ++i) {
    counts_[i].store(0, std::memory_order_relaxed);
  }
  underflow_.store(0, std::memory_order_relaxed);
  overflow_.store(0, std::memory_order_relaxed);
}

namespace {

/// Registration key: name plus labels in the order given. '\x1f' (unit
/// separator) cannot appear in sane metric names and keeps keys unambiguous.
std::string make_key(std::string_view name, const Labels& labels) {
  std::string key(name);
  for (const auto& [k, v] : labels) {
    key += '\x1f';
    key += k;
    key += '\x1f';
    key += v;
  }
  return key;
}

}  // namespace

Counter& Registry::counter(std::string_view name, const Labels& labels) {
  const std::string key = make_key(name, labels);
  const std::lock_guard<std::mutex> lock(mu_);
  auto it = counters_.find(key);
  if (it == counters_.end()) {
    it = counters_
             .emplace(key, Entry<Counter>{std::string(name), labels,
                                          std::make_unique<Counter>()})
             .first;
  }
  return *it->second.metric;
}

Gauge& Registry::gauge(std::string_view name, const Labels& labels) {
  const std::string key = make_key(name, labels);
  const std::lock_guard<std::mutex> lock(mu_);
  auto it = gauges_.find(key);
  if (it == gauges_.end()) {
    it = gauges_
             .emplace(key, Entry<Gauge>{std::string(name), labels,
                                        std::make_unique<Gauge>()})
             .first;
  }
  return *it->second.metric;
}

Histogram& Registry::histogram(std::string_view name, double lo, double hi,
                               std::size_t bins, const Labels& labels) {
  const std::string key = make_key(name, labels);
  const std::lock_guard<std::mutex> lock(mu_);
  auto it = histograms_.find(key);
  if (it == histograms_.end()) {
    it = histograms_
             .emplace(key, Entry<Histogram>{std::string(name), labels,
                                            std::make_unique<Histogram>(
                                                lo, hi, bins)})
             .first;
  }
  return *it->second.metric;
}

Snapshot Registry::snapshot() const {
  const std::lock_guard<std::mutex> lock(mu_);
  Snapshot s;
  s.counters.reserve(counters_.size());
  for (const auto& [key, e] : counters_) {
    s.counters.push_back({e.name, e.labels, e.metric->value()});
  }
  s.gauges.reserve(gauges_.size());
  for (const auto& [key, e] : gauges_) {
    s.gauges.push_back({e.name, e.labels, e.metric->value()});
  }
  s.histograms.reserve(histograms_.size());
  for (const auto& [key, e] : histograms_) {
    HistogramSample h = e.metric->sample();
    h.name = e.name;
    h.labels = e.labels;
    s.histograms.push_back(std::move(h));
  }
  return s;
}

void Registry::reset() {
  const std::lock_guard<std::mutex> lock(mu_);
  for (auto& [key, e] : counters_) e.metric->reset();
  for (auto& [key, e] : gauges_) e.metric->reset();
  for (auto& [key, e] : histograms_) e.metric->reset();
}

Registry& registry() noexcept {
  static Registry r;
  return r;
}

}  // namespace real
}  // namespace ftl::obs
