// Propagatable trace context and sliding-window latency histograms — the
// request-scoped layer of the observability subsystem.
//
// Two pieces:
//  * TraceContext is a 64-bit trace id plus the span id of the current
//    (parent) span. It crosses process boundaries on the wire (the
//    ftlcoordd decide frame carries one), so a client batch span and the
//    daemon's per-stage child spans land in different trace files under the
//    same trace id and `ftlbench trace-merge` can join them into one
//    Perfetto timeline. Ids derive deterministically from an RNG-stream
//    label (splitmix64 over seed/stream/index), which is what makes traces
//    reproducible in stepped mode: same seed, same schedule, same ids.
//    Spans under a context are recorded after the fact with
//    Tracer::record_span, which stamps trace/span/parent ids into the
//    event's args.
//  * SlidingHistogram is a thread-safe windowed histogram: observations
//    land in the current time epoch of a small ring, and flush() publishes
//    p50/p95/p99/p999 over the live window as plain gauges
//    (`<name>.window_p50`...), which ride through the existing Prometheus
//    serializer untouched. A scrape therefore sees *recent* latency, not
//    the run-lifetime distribution the cumulative histograms report.
//
// SlidingHistogram has a no-op twin under FTL_OBS_ENABLED=OFF with
// identical signatures (asserted empty by obs_noop_test).
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <string_view>

#include "obs/metrics.hpp"
#include "util/histogram.hpp"
#include "util/rng.hpp"

namespace ftl::obs {

/// Wire-propagatable identity of one request's trace. Plain data, shared
/// between the real and no-op configurations (like the snapshot types).
struct TraceContext {
  std::uint64_t trace_id = 0;  ///< 0 = unsampled (no trace)
  std::uint64_t span_id = 0;   ///< the current span; parent of any child

  [[nodiscard]] bool sampled() const noexcept { return trace_id != 0; }

  /// Deterministic derivation from an RNG-stream label: the same
  /// (seed, stream, index) always names the same trace, so stepped-mode
  /// runs produce bit-identical ids. Never returns an unsampled context.
  [[nodiscard]] static TraceContext derive(std::uint64_t seed,
                                           std::uint64_t stream,
                                           std::uint64_t index) noexcept {
    std::uint64_t s = seed;
    s ^= 0x9e3779b97f4a7c15ULL * (stream + 1);
    s ^= 0xbf58476d1ce4e5b9ULL * (index + 1);
    TraceContext ctx;
    ctx.trace_id = util::splitmix64(s);
    if (ctx.trace_id == 0) ctx.trace_id = 1;
    ctx.span_id = util::splitmix64(s);
    return ctx;
  }

  /// Deterministic child span id for a labeled stage under this span.
  [[nodiscard]] std::uint64_t child_span_id(
      std::uint64_t label) const noexcept {
    std::uint64_t s = trace_id ^ (span_id + 0x94d049bb133111ebULL * (label + 1));
    return util::splitmix64(s);
  }

  /// Context a child span would propagate onward (same trace, child span).
  [[nodiscard]] TraceContext child(std::uint64_t label) const noexcept {
    return TraceContext{trace_id, child_span_id(label)};
  }
};

/// 16-hex-digit rendering of an id (how ids appear in trace-event args).
[[nodiscard]] std::string trace_id_hex(std::uint64_t id);

/// Parses what trace_id_hex produced; 0 on malformed input.
[[nodiscard]] std::uint64_t parse_trace_id_hex(std::string_view hex);

namespace real {

/// Thread-safe sliding-window histogram: a ring of time epochs, each a
/// Histogram with the window's bins. observe() is lock-free on the fast
/// path (one relaxed atomic add into the current epoch); epoch rotation
/// takes a mutex and reset()s the reused epoch, at most once per epoch
/// period. flush() sums the live epochs once and publishes that one sum's
/// p50/p95/p99/p999 and sample count as plain gauges named
/// `<name>.window_p50` etc., so the existing Prometheus serializer exports
/// them with no new machinery. Quantiles are util::Histogram::quantile over
/// the summed bins: the midpoint of the bin holding the q-th sample (`lo`
/// for an empty window), the rule every other quantile in the tree uses.
///
/// Concurrent observers racing a rotation may land a sample in an epoch
/// being cleared; that is monitoring-grade accuracy by design (same stance
/// as Histogram::sample()).
class SlidingHistogram {
 public:
  /// Window = `window_epochs` epochs of `epoch` wall time each, binned like
  /// Histogram(lo, hi, bins). Gauges are registered on `reg` (default: the
  /// process-wide registry) under `name.window_p50|p95|p99|p999|count` with
  /// `labels`.
  SlidingHistogram(std::string_view name, double lo, double hi,
                   std::size_t bins, std::size_t window_epochs,
                   std::chrono::milliseconds epoch, Registry* reg = nullptr,
                   const Labels& labels = {});

  void observe(double x) noexcept;

  /// Publishes the current window's quantiles and count to the gauges.
  /// Call from the scrape/export path (cost: one pass over the ring).
  void flush();

  /// Quantile over the live window (flush-independent; for tests).
  [[nodiscard]] double quantile(double q) const;
  /// Samples currently inside the window.
  [[nodiscard]] std::uint64_t window_count() const;

  SlidingHistogram(const SlidingHistogram&) = delete;
  SlidingHistogram& operator=(const SlidingHistogram&) = delete;

 private:
  struct Epoch {
    Epoch(double lo, double hi, std::size_t bins) : hist(lo, hi, bins) {}
    Histogram hist;
    /// Epoch index the bins belong to; all-ones = never used.
    std::atomic<std::uint64_t> start_idx{~std::uint64_t{0}};
  };

  /// Epoch index for "now"; rotates the ring forward when time moved on.
  std::size_t current_slot() noexcept;
  /// The live epochs summed into one histogram.
  [[nodiscard]] util::Histogram window() const;

  std::size_t window_epochs_;
  std::chrono::nanoseconds epoch_len_;
  std::chrono::steady_clock::time_point t0_;
  std::deque<Epoch> ring_;  ///< deque: epochs are built in place, never moved
  std::atomic<std::uint64_t> cur_epoch_{0};
  std::mutex rotate_mu_;

  Gauge& g_p50_;
  Gauge& g_p95_;
  Gauge& g_p99_;
  Gauge& g_p999_;
  Gauge& g_count_;
};

}  // namespace real

namespace noop {

struct SlidingHistogram {
  SlidingHistogram(std::string_view, double, double, std::size_t, std::size_t,
                   std::chrono::milliseconds, Registry* = nullptr,
                   const Labels& = {}) noexcept {}
  void observe(double) const noexcept {}
  void flush() const noexcept {}
  [[nodiscard]] double quantile(double) const noexcept { return 0.0; }
  [[nodiscard]] std::uint64_t window_count() const noexcept { return 0; }
  SlidingHistogram(const SlidingHistogram&) = delete;
  SlidingHistogram& operator=(const SlidingHistogram&) = delete;
};

}  // namespace noop

#if FTL_OBS_ENABLED
using SlidingHistogram = real::SlidingHistogram;
#else
using SlidingHistogram = noop::SlidingHistogram;
#endif

}  // namespace ftl::obs
