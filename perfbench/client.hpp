// The benchmark's own open-loop decide client, built directly on the public
// ftlcoordd protocol.hpp / net.hpp functions.
//
// One call drives one connection through one phase: frame k is *due* at
// start + k * interval, whatever happened to earlier frames (open loop).
// Latency runs from the due time, not from the actual send, so a stall
// that delays later sends is charged to every frame it delayed; how late
// each send was is kept separately as generator lag. At most `window`
// frames are in flight: a daemon that stops answering therefore shows up
// as growing lag (a send backlog) rather than as an unbounded socket queue.
// A rejected, malformed, lost or unsent frame counts as failed, i.e. over
// any latency limit.
#pragma once

#include <cstdint>
#include <limits>
#include <optional>
#include <vector>

#include "ftlcoordd/protocol.hpp"

namespace perfbench {

struct PhaseConfig {
  std::uint32_t source = 0;
  std::size_t batch = 8;
  /// Decisions per second offered on this connection.
  double rate_hz = 1e5;
  /// Due time of frame 0, steady-clock ns.
  std::int64_t start_ns = 0;
  std::int64_t duration_ns = 1'000'000'000;
  std::size_t window = 64;
  /// Seeded input bits; frame k reads `batch` bits from offset
  /// (input_offset + k * batch) mod size.
  const std::vector<std::uint8_t>* inputs = nullptr;
  std::size_t input_offset = 0;
};

inline constexpr double kFailedLatency = std::numeric_limits<double>::infinity();

struct PhaseStats {
  /// Per due frame, in frame order: due time from the phase start (s),
  /// latency from due time (us; kFailedLatency for a failed frame) and
  /// generator lag (us; kFailedLatency for an unsent frame).
  std::vector<double> due_s;
  std::vector<double> latency_us;
  std::vector<double> lag_us;
  std::uint64_t frames_due = 0;
  std::uint64_t frames_sent = 0;
  std::uint64_t frames_ok = 0;
  std::uint64_t rejected = 0;   ///< frames answered kRejected
  std::uint64_t malformed = 0;  ///< frames answered kMalformed / undecodable
  std::uint64_t errored = 0;    ///< unsent or unanswered frames
  std::uint64_t decisions_ok = 0;
  std::uint64_t decisions_rejected = 0;
  std::uint64_t quantum = 0;
  std::uint64_t won = 0;
  /// Reply entries inconsistent with their request (see verify rules).
  std::uint64_t bad_entries = 0;
  double write_us_sum = 0.0;      ///< time inside write_frame
  double read_wait_us_sum = 0.0;  ///< write_frame end -> read_frame return
  bool connection_lost = false;

  void merge(const PhaseStats& o);
  [[nodiscard]] std::uint64_t failed_frames() const {
    return rejected + malformed + errored;
  }
};

/// Cuts the phase into `windows` equal due-time windows and returns the
/// median over windows of each window's `q`-quantile of `values` (one of
/// the per-frame vectors of `st`), so one burst of machine noise does not
/// decide the result. `duration_s` is the phase length.
[[nodiscard]] double windowed_quantile(const PhaseStats& st,
                                       const std::vector<double>& values,
                                       double q, std::size_t windows,
                                       double duration_s);

/// Runs one open-loop phase on connected fd `fd` (blocking; run one call
/// per thread for several connections).
[[nodiscard]] PhaseStats run_phase(int fd, const PhaseConfig& cfg);

/// Sends one kStats frame and decodes the reply; nullopt on I/O or decode
/// failure. Only for connections with no frames in flight.
[[nodiscard]] std::optional<ftl::coordd::StatsReply> fetch_stats(int fd);

/// True when the daemon's counters satisfy the broker's conservation
/// identities: generated = lost_fiber + delivered, and delivered = hits +
/// expired + dropped_full + in_memory.
[[nodiscard]] bool stats_conserved(const ftl::coordd::StatsReply& s);

}  // namespace perfbench
