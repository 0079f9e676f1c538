#include "obs/spanctx.hpp"

#include <algorithm>
#include <cstdio>
#include <utility>
#include <vector>

namespace ftl::obs {

std::string trace_id_hex(std::uint64_t id) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(id));
  return std::string(buf, 16);
}

std::uint64_t parse_trace_id_hex(std::string_view hex) {
  if (hex.empty() || hex.size() > 16) return 0;
  std::uint64_t v = 0;
  for (const char c : hex) {
    v <<= 4;
    if (c >= '0' && c <= '9') {
      v |= static_cast<std::uint64_t>(c - '0');
    } else if (c >= 'a' && c <= 'f') {
      v |= static_cast<std::uint64_t>(c - 'a' + 10);
    } else if (c >= 'A' && c <= 'F') {
      v |= static_cast<std::uint64_t>(c - 'A' + 10);
    } else {
      return 0;
    }
  }
  return v;
}

namespace real {

namespace {

std::string windowed_gauge_name(std::string_view base, const char* suffix) {
  std::string out(base);
  out += suffix;
  return out;
}

}  // namespace

SlidingHistogram::SlidingHistogram(std::string_view name, double lo, double hi,
                                   std::size_t bins,
                                   std::size_t window_epochs,
                                   std::chrono::milliseconds epoch,
                                   Registry* reg, const Labels& labels)
    : window_epochs_(window_epochs == 0 ? 1 : window_epochs),
      epoch_len_(std::chrono::duration_cast<std::chrono::nanoseconds>(
          epoch.count() > 0 ? epoch : std::chrono::milliseconds(1))),
      t0_(std::chrono::steady_clock::now()),
      g_p50_(
          (reg != nullptr ? *reg : registry())
              .gauge(windowed_gauge_name(name, ".window_p50"), labels)),
      g_p95_(
          (reg != nullptr ? *reg : registry())
              .gauge(windowed_gauge_name(name, ".window_p95"), labels)),
      g_p99_(
          (reg != nullptr ? *reg : registry())
              .gauge(windowed_gauge_name(name, ".window_p99"), labels)),
      g_p999_(
          (reg != nullptr ? *reg : registry())
              .gauge(windowed_gauge_name(name, ".window_p999"), labels)),
      g_count_(
          (reg != nullptr ? *reg : registry())
              .gauge(windowed_gauge_name(name, ".window_count"), labels)) {
  // One spare slot beyond the window so the epoch being cleared during a
  // rotation is never one the window still reads.
  for (std::size_t i = 0; i <= window_epochs_; ++i) {
    ring_.emplace_back(lo, hi, bins);
  }
  ring_[0].start_idx.store(0, std::memory_order_relaxed);
}

std::size_t SlidingHistogram::current_slot() noexcept {
  const auto elapsed = std::chrono::steady_clock::now() - t0_;
  const std::uint64_t epoch = static_cast<std::uint64_t>(
      elapsed.count() / epoch_len_.count());
  const std::size_t slot = static_cast<std::size_t>(epoch % ring_.size());
  if (ring_[slot].start_idx.load(std::memory_order_acquire) != epoch) {
    // First observer of a new epoch claims and clears its slot. The mutex
    // only serializes rotations, never the per-sample fast path.
    const std::lock_guard<std::mutex> lock(rotate_mu_);
    if (ring_[slot].start_idx.load(std::memory_order_relaxed) != epoch) {
      ring_[slot].hist.reset();
      ring_[slot].start_idx.store(epoch, std::memory_order_release);
      std::uint64_t cur = cur_epoch_.load(std::memory_order_relaxed);
      while (cur < epoch && !cur_epoch_.compare_exchange_weak(
                                cur, epoch, std::memory_order_relaxed)) {
      }
    }
  }
  return slot;
}

void SlidingHistogram::observe(double x) noexcept {
  ring_[current_slot()].hist.observe(x);
}

util::Histogram SlidingHistogram::window() const {
  // The window is anchored at wall-clock "now", not at the last observed
  // epoch: after an idle gap with no observers (nothing advanced
  // cur_epoch_), old epochs must age out of the window instead of
  // reporting stale percentiles forever.
  const auto elapsed = std::chrono::steady_clock::now() - t0_;
  const std::uint64_t wall_epoch =
      static_cast<std::uint64_t>(elapsed.count() / epoch_len_.count());
  const std::uint64_t cur =
      std::max(cur_epoch_.load(std::memory_order_relaxed), wall_epoch);
  const std::uint64_t oldest =
      cur >= window_epochs_ - 1 ? cur - (window_epochs_ - 1) : 0;
  const Histogram& first = ring_.front().hist;
  std::vector<std::size_t> counts(first.bins(), 0);
  for (const Epoch& e : ring_) {
    const std::uint64_t idx = e.start_idx.load(std::memory_order_acquire);
    if (idx == ~std::uint64_t{0} || idx < oldest || idx > cur) continue;
    const HistogramSample s = e.hist.sample();
    for (std::size_t b = 0; b < counts.size(); ++b) counts[b] += s.counts[b];
  }
  // Only the bins are read (quantiles, total); the edge bins already hold
  // the clamped out-of-range samples, so no under/overflow tally is kept.
  return util::Histogram::from_counts(first.lo(), first.hi(),
                                      std::move(counts), 0, 0);
}

double SlidingHistogram::quantile(double q) const {
  return window().quantile(q);
}

std::uint64_t SlidingHistogram::window_count() const {
  return window().total();
}

void SlidingHistogram::flush() {
  // Nudge the ring forward so long-idle windows decay to empty even with
  // no observers.
  (void)current_slot();
  const util::Histogram w = window();
  g_p50_.set(w.quantile(0.50));
  g_p95_.set(w.quantile(0.95));
  g_p99_.set(w.quantile(0.99));
  g_p999_.set(w.quantile(0.999));
  g_count_.set(static_cast<double>(w.total()));
}

}  // namespace real

}  // namespace ftl::obs
