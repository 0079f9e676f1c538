// Multi-threaded open-loop load generator for ftlcoordd.
//
// Each worker owns one connection and one source, paces batch departures
// from a fixed schedule (open loop: send times do not depend on response
// times, so the daemon sees the offered load even when it is slow), keeps
// up to `pipeline` batches in flight, and records per-batch round-trip
// latency. Batching is what makes millions of decisions per second
// possible over a localhost socket: at batch 512 a single frame round-trip
// carries 512 decisions.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>

#include "ftlcoordd/protocol.hpp"
#include "util/histogram.hpp"

namespace ftl::coordd {

struct LoadgenConfig {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;
  /// Worker threads; worker i drives source (i % daemon sources).
  std::size_t threads = 2;
  std::size_t sources = 1;
  /// Decisions per frame.
  std::size_t batch = 512;
  /// Total decisions across all workers (rounded up to whole batches).
  std::uint64_t decisions = 1'000'000;
  /// Offered load in decisions/s across all workers; 0 = as fast as the
  /// pipeline allows (closed-loop saturation).
  double rate_hz = 0.0;
  /// Batches in flight per connection before the worker must wait.
  std::size_t pipeline = 4;
  /// Seed for deterministic trace-id derivation: worker w's batch b is
  /// traced under TraceContext::derive(seed, w, b), so a stepped schedule
  /// reproduces the same trace ids run over run.
  std::uint64_t seed = 42;
  /// Trace 1 of every N batches per worker (0 = tracing off). Sampled
  /// batches carry their trace context to the daemon in the v2 frame and
  /// record a client-side batch_rtt span.
  std::uint64_t trace_sample_n = 0;
  /// Per-request deadline budget, microseconds (0 = no deadline). Carried
  /// in every v2 frame; the daemon attributes misses per stage and sets
  /// kDeadlineMissBit on late decisions.
  std::uint32_t deadline_us = 0;
};

struct LoadgenResult {
  bool ok = false;
  std::string error;

  std::uint64_t decisions_sent = 0;
  std::uint64_t decisions_ok = 0;
  std::uint64_t decisions_rejected = 0;  // admission backpressure
  std::uint64_t quantum = 0;
  std::uint64_t rounds_won = 0;
  /// Decisions whose reply carried kDeadlineMissBit (v2 with a deadline).
  std::uint64_t deadline_missed = 0;
  double wall_s = 0.0;
  /// Per-batch round-trip latency, seconds.
  util::Histogram latency{0.0, 0.05, 500};
  /// Daemon-side counters scraped via kStats after the run.
  StatsReply server_stats;

  [[nodiscard]] double achieved_rate_hz() const {
    return wall_s > 0.0 ? static_cast<double>(decisions_ok) / wall_s : 0.0;
  }
  [[nodiscard]] double hit_fraction() const {
    return decisions_ok == 0 ? 0.0
                             : static_cast<double>(quantum) /
                                   static_cast<double>(decisions_ok);
  }
};

/// Runs the workers to completion and prints a human-readable summary to
/// `log` (pass std::cerr; use result fields for machine consumption).
[[nodiscard]] LoadgenResult run_loadgen(const LoadgenConfig& cfg,
                                        std::ostream& log);

}  // namespace ftl::coordd
