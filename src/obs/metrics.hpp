// Metrics registry: labeled counters, gauges, and histograms cheap enough
// for simulator hot loops.
//
// Design rules:
//  * Write path is lock-free: counters/gauges/histogram bins are relaxed
//    atomics; incrementing never takes a lock. The registry mutex guards
//    only registration (once per metric) and snapshotting.
//  * Call sites hoist the registry lookup out of hot loops — fetch the
//    `Counter&` once per run, then `inc()` per event.
//  * Compile-time kill switch: building with -DFTL_OBS_ENABLED=OFF (CMake
//    option) swaps every type for an empty no-op twin with identical
//    signatures, so instrumented call sites compile to nothing. Both
//    implementations are always *compiled* (under obs::real / obs::noop);
//    only the `ftl::obs::X` aliases switch, which keeps the two
//    configurations honest and lets tests assert the no-op twins are
//    genuinely empty.
//
// Naming scheme: dotted lowercase `subsystem.object.metric`, e.g.
// `lb.queue_depth`, `qnet.pairs.generated`, `games.seesaw.rounds`.
// Distinguish sub-populations with labels, not name suffixes:
// `lb.chsh.rounds_won{source=quantum-chsh(v=1)}`.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/histogram.hpp"

#ifndef FTL_OBS_ENABLED
#define FTL_OBS_ENABLED 1
#endif

namespace ftl::obs {

/// Ordered key/value metric labels (kept as written; not canonicalised).
using Labels = std::vector<std::pair<std::string, std::string>>;

// Snapshot types are shared between the real and no-op implementations so
// report serialization works identically in both configurations.
struct CounterSample {
  std::string name;
  Labels labels;
  std::uint64_t value = 0;
};

struct GaugeSample {
  std::string name;
  Labels labels;
  double value = 0.0;
};

struct HistogramSample {
  std::string name;
  Labels labels;
  double lo = 0.0;
  double hi = 1.0;
  std::vector<std::size_t> counts;
  std::size_t underflow = 0;
  std::size_t overflow = 0;
  std::size_t total = 0;

  /// Rebuilds a util::Histogram (quantiles, ascii rendering) from the
  /// sampled counts.
  [[nodiscard]] util::Histogram to_histogram() const;
};

struct Snapshot {
  std::vector<CounterSample> counters;
  std::vector<GaugeSample> gauges;
  std::vector<HistogramSample> histograms;
};

// ---------------------------------------------------------------------------
// Real implementation.
// ---------------------------------------------------------------------------
namespace real {

/// Monotonically increasing event count.
class Counter {
 public:
  void inc(std::uint64_t n = 1) noexcept {
    v_.fetch_add(n, std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t value() const noexcept {
    return v_.load(std::memory_order_relaxed);
  }
  void reset() noexcept { v_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> v_{0};
};

/// Last-write-wins scalar with lock-free add / running-max updates.
class Gauge {
 public:
  void set(double x) noexcept { v_.store(x, std::memory_order_relaxed); }
  void add(double x) noexcept {
    double cur = v_.load(std::memory_order_relaxed);
    while (!v_.compare_exchange_weak(cur, cur + x, std::memory_order_relaxed)) {
    }
  }
  /// Raises the gauge to `x` if `x` exceeds the current value (high-water
  /// mark tracking).
  void update_max(double x) noexcept {
    double cur = v_.load(std::memory_order_relaxed);
    while (cur < x &&
           !v_.compare_exchange_weak(cur, x, std::memory_order_relaxed)) {
    }
  }
  [[nodiscard]] double value() const noexcept {
    return v_.load(std::memory_order_relaxed);
  }
  void reset() noexcept { v_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> v_{0.0};
};

/// Uniform-bin histogram with atomic bins; same binning semantics as
/// util::Histogram (out-of-range samples clamp into the edge bins and are
/// tallied as underflow/overflow).
class Histogram {
 public:
  Histogram(double lo, double hi, std::size_t bins);

  /// Records `n` samples of value `x` (one atomic add, not n).
  void observe(double x, std::uint64_t n = 1) noexcept;

  [[nodiscard]] double lo() const noexcept { return lo_; }
  [[nodiscard]] double hi() const noexcept { return hi_; }
  [[nodiscard]] std::size_t bins() const noexcept { return bins_; }

  /// Consistent-enough copy of the current state (bins are read with
  /// relaxed loads; concurrent writers may land between reads, which is
  /// fine for monitoring).
  [[nodiscard]] HistogramSample sample() const;

  /// The sampled counts rebuilt as a util::Histogram, for quantile() and
  /// ascii() reuse.
  [[nodiscard]] util::Histogram snapshot() const;

  void reset() noexcept;

 private:
  double lo_;
  double hi_;
  std::size_t bins_;
  std::unique_ptr<std::atomic<std::uint64_t>[]> counts_;
  std::atomic<std::uint64_t> underflow_{0};
  std::atomic<std::uint64_t> overflow_{0};
};

/// Owns every metric; hands out stable references. Metrics are keyed by
/// (name, labels); registering the same key twice returns the same object.
class Registry {
 public:
  Counter& counter(std::string_view name, const Labels& labels = {});
  Gauge& gauge(std::string_view name, const Labels& labels = {});
  /// `lo`/`hi`/`bins` are fixed at first registration; later calls with the
  /// same key ignore them and return the existing histogram.
  Histogram& histogram(std::string_view name, double lo, double hi,
                       std::size_t bins, const Labels& labels = {});

  /// Point-in-time copy of every metric, sorted by registration key.
  [[nodiscard]] Snapshot snapshot() const;

  /// Zeroes every value but keeps registrations — outstanding references
  /// stay valid. Use between runs that want independent reports.
  void reset();

 private:
  template <class T>
  struct Entry {
    std::string name;
    Labels labels;
    std::unique_ptr<T> metric;
  };

  mutable std::mutex mu_;
  std::map<std::string, Entry<Counter>> counters_;
  std::map<std::string, Entry<Gauge>> gauges_;
  std::map<std::string, Entry<Histogram>> histograms_;
};

/// The process-wide default registry (what instrumented library code uses).
Registry& registry() noexcept;

}  // namespace real

// ---------------------------------------------------------------------------
// No-op twins: empty types with identical signatures. Everything inlines
// to nothing; tests assert std::is_empty on each.
// ---------------------------------------------------------------------------
namespace noop {

struct Counter {
  void inc(std::uint64_t = 1) const noexcept {}
  [[nodiscard]] std::uint64_t value() const noexcept { return 0; }
  void reset() const noexcept {}
};

struct Gauge {
  void set(double) const noexcept {}
  void add(double) const noexcept {}
  void update_max(double) const noexcept {}
  [[nodiscard]] double value() const noexcept { return 0.0; }
  void reset() const noexcept {}
};

struct Histogram {
  Histogram() = default;
  Histogram(double, double, std::size_t) {}
  void observe(double, std::uint64_t = 1) const noexcept {}
  [[nodiscard]] double lo() const noexcept { return 0.0; }
  [[nodiscard]] double hi() const noexcept { return 1.0; }
  [[nodiscard]] std::size_t bins() const noexcept { return 1; }
  [[nodiscard]] HistogramSample sample() const { return {}; }
  [[nodiscard]] util::Histogram snapshot() const {
    return util::Histogram(0.0, 1.0, 1);
  }
  void reset() const noexcept {}
};

struct Registry {
  Counter& counter(std::string_view, const Labels& = {}) const noexcept {
    static Counter c;
    return c;
  }
  Gauge& gauge(std::string_view, const Labels& = {}) const noexcept {
    static Gauge g;
    return g;
  }
  Histogram& histogram(std::string_view, double, double, std::size_t,
                       const Labels& = {}) const noexcept {
    static Histogram h;
    return h;
  }
  [[nodiscard]] Snapshot snapshot() const { return {}; }
  void reset() const noexcept {}
};

inline Registry& registry() noexcept {
  static Registry r;
  return r;
}

}  // namespace noop

// ---------------------------------------------------------------------------
// Configuration switch.
// ---------------------------------------------------------------------------
#if FTL_OBS_ENABLED
inline constexpr bool kEnabled = true;
using Counter = real::Counter;
using Gauge = real::Gauge;
using Histogram = real::Histogram;
using Registry = real::Registry;
inline Registry& registry() noexcept { return real::registry(); }
#else
inline constexpr bool kEnabled = false;
using Counter = noop::Counter;
using Gauge = noop::Gauge;
using Histogram = noop::Histogram;
using Registry = noop::Registry;
inline Registry& registry() noexcept { return noop::registry(); }
#endif

}  // namespace ftl::obs
