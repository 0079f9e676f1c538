// Span tracing in Chrome trace_event JSON.
//
// The emitted file loads directly in chrome://tracing or
// https://ui.perfetto.dev (File > Open). Collection is off until
// Tracer::start(); an inactive tracer costs one relaxed atomic load per
// span, and with FTL_OBS_ENABLED=OFF spans compile away entirely (the
// no-op twins below).
//
// Span names are `const char*` and are NOT copied: use string literals (or
// storage that outlives the tracer buffer).
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "obs/metrics.hpp"  // FTL_OBS_ENABLED

namespace ftl::obs {

namespace real {

class Tracer {
 public:
  /// Clears the buffer and starts collecting; timestamps are relative to
  /// this call.
  void start();
  void stop();
  [[nodiscard]] bool active() const noexcept {
    return active_.load(std::memory_order_relaxed);
  }

  /// Microseconds since start() (0 when never started).
  [[nodiscard]] double now_us() const;

  /// Appends a complete ("ph":"X") event. No-op when inactive.
  void record_complete(const char* name, const char* cat, double ts_us,
                       double dur_us);

  /// Appends a complete event carrying trace/span/parent ids in its args
  /// (hex strings), joinable across processes by `ftlbench trace-merge`.
  /// No-op when inactive.
  void record_span(const char* name, const char* cat, double ts_us,
                   double dur_us, std::uint64_t trace_id,
                   std::uint64_t span_id, std::uint64_t parent_span_id);

  /// Appends an instant ("ph":"i") event tagged with a trace id and a
  /// `stage` arg (e.g. the deadline-miss attribution marker). `stage` is
  /// not copied: string literals only, like span names. No-op when
  /// inactive.
  void record_instant_tagged(const char* name, const char* cat,
                             std::uint64_t trace_id, const char* stage);

  /// Microseconds between start() and `tp` (may be negative for earlier
  /// timestamps; 0 when never started).
  [[nodiscard]] double ts_us(std::chrono::steady_clock::time_point tp) const;

  /// start()'s position on the steady clock, in nanoseconds since the
  /// clock's epoch. Two tracers on the same host share that epoch, which
  /// is what lets trace-merge re-base client and server files onto one
  /// timeline. 0 when never started.
  [[nodiscard]] std::uint64_t t0_steady_ns() const;

  [[nodiscard]] std::size_t size() const;

  /// Serializes the buffer as a Chrome trace JSON document.
  [[nodiscard]] std::string json() const;

  /// Writes json() to `path`; returns false on I/O failure.
  bool write(const std::string& path) const;

 private:
  struct Event {
    const char* name;
    const char* cat;
    char phase;  // 'X' complete, 'i' instant
    double ts_us;
    double dur_us;
    std::uint64_t tid;
    // Parented-span identity; 0 = plain (un-parented) event.
    std::uint64_t trace_id = 0;
    std::uint64_t span_id = 0;
    std::uint64_t parent_span_id = 0;
    const char* stage = nullptr;  // optional `stage` arg (literals only)
  };

  std::atomic<bool> active_{false};
  std::chrono::steady_clock::time_point t0_{};
  mutable std::mutex mu_;
  std::vector<Event> events_;
};

Tracer& tracer() noexcept;

/// Times a scope and records it as a trace span — if the tracer was active
/// when the scope opened. One atomic load when tracing is off.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name, const char* cat = "ftl") {
    if (tracer().active()) {
      name_ = name;
      cat_ = cat;
      start_us_ = tracer().now_us();
    }
  }
  ~ScopedSpan() {
    if (name_ != nullptr) {
      Tracer& t = tracer();
      t.record_complete(name_, cat_, start_us_, t.now_us() - start_us_);
    }
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  const char* name_ = nullptr;
  const char* cat_ = nullptr;
  double start_us_ = 0.0;
};

}  // namespace real

namespace noop {

struct Tracer {
  void start() const noexcept {}
  void stop() const noexcept {}
  [[nodiscard]] bool active() const noexcept { return false; }
  [[nodiscard]] double now_us() const noexcept { return 0.0; }
  void record_complete(const char*, const char*, double, double) const
      noexcept {}
  void record_span(const char*, const char*, double, double, std::uint64_t,
                   std::uint64_t, std::uint64_t) const noexcept {}
  void record_instant_tagged(const char*, const char*, std::uint64_t,
                             const char*) const noexcept {}
  [[nodiscard]] double ts_us(std::chrono::steady_clock::time_point) const
      noexcept {
    return 0.0;
  }
  [[nodiscard]] std::uint64_t t0_steady_ns() const noexcept { return 0; }
  [[nodiscard]] std::size_t size() const noexcept { return 0; }
  [[nodiscard]] std::string json() const {
    return "{\"traceEvents\":[]}";  // still a valid (empty) trace
  }
  bool write(const std::string&) const noexcept { return false; }
};

inline Tracer& tracer() noexcept {
  static Tracer t;
  return t;
}

struct ScopedSpan {
  explicit ScopedSpan(const char*, const char* = "ftl") noexcept {}
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
};

}  // namespace noop

#if FTL_OBS_ENABLED
using Tracer = real::Tracer;
using ScopedSpan = real::ScopedSpan;
inline Tracer& tracer() noexcept { return real::tracer(); }
#else
using Tracer = noop::Tracer;
using ScopedSpan = noop::ScopedSpan;
inline Tracer& tracer() noexcept { return noop::tracer(); }
#endif

}  // namespace ftl::obs
