// ftlcoordd wire protocol: length-prefixed binary frames over a local
// stream socket.
//
// Frame:      u32 payload length (little-endian), then the payload.
// Request:    u8 message type, then a type-specific body.
//   kDecideV2 u32 source, u64 trace id, u64 parent span id, u64 client
//             send timestamp (steady-clock ns), u32 deadline budget (us),
//             u32 count, u8 inputs[count] — ask for `count` coordination
//             decisions against one pair source. Batching is the point:
//             one frame amortizes the syscall/RTT over hundreds of
//             decisions, which is how the loadgen reaches millions of
//             decisions per second on a local socket. Trace id 0 and
//             deadline 0 mean an untraced frame without a budget.
//   kReport   u32 source, u32 wins, u32 losses — endpoints report game
//             outcomes back; the daemon only counts them (metrics).
//   kStats    empty body — returns the broker's aggregated counters.
//   Any other type (including the retired v1 decide frame, type 1) is
//   answered kMalformed and the connection stays open.
// Response:   u8 status, then a status/type-specific body.
//   kOk + Decide: u32 count, then per decision u8 flags (bit0 = output
//             bit, bit1 = consumed a live pair, bit2 = round won, bit3 =
//             deadline missed) and u16 win probability in 1/65535 units.
//   kRejected: empty body — admission control refused the batch
//             (bounded-queue backpressure); the client backs off.
//   kMalformed: empty body — undecodable frame or bad source index.
//   kOk + Stats: u32 field count, then that many u64 counters in the
//             order listed in StatsReply (additions only ever append).
//
// Integers are little-endian; the daemon only serves localhost, so no
// byte-swapping for the wire (asserted at encode time on the host's
// representation via memcpy — every supported target is little-endian).
#pragma once

#include <cstdint>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

namespace ftl::coordd {

inline constexpr std::uint32_t kMaxFrameBytes = 1u << 22;  // 4 MiB cap

enum class MsgType : std::uint8_t {
  kReport = 2,
  kStats = 3,
  // Versioning is by message type. Type 1 (the retired v1 decide frame)
  // is not reused, so a stale client gets kMalformed, never a misparse.
  kDecideV2 = 4,
};

enum class Status : std::uint8_t {
  kOk = 0,
  kRejected = 1,   // admission control backpressure
  kMalformed = 2,  // undecodable frame / bad source
};

/// v2 decide frame body. `trace_id` 0 means the batch is unsampled (no
/// spans recorded server-side); `deadline_us` 0 means no deadline. The
/// send timestamp is raw steady-clock nanoseconds — the daemon only serves
/// localhost, so client and server share the clock and the daemon can
/// attribute elapsed budget at each pipeline stage without any clock-sync
/// machinery.
struct DecideRequestV2 {
  std::uint32_t source = 0;
  std::uint64_t trace_id = 0;
  std::uint64_t parent_span_id = 0;
  std::uint64_t client_send_steady_ns = 0;
  std::uint32_t deadline_us = 0;
  std::vector<std::uint8_t> inputs;  // one game input bit per decision
};

struct ReportRequest {
  std::uint32_t source = 0;
  std::uint32_t wins = 0;
  std::uint32_t losses = 0;
};

struct DecisionEntry {
  std::uint8_t flags = 0;     // bit0 output, bit1 quantum, bit2 round_won
  std::uint16_t win_q = 0;    // win probability * 65535

  static constexpr std::uint8_t kOutputBit = 1u << 0;
  static constexpr std::uint8_t kQuantumBit = 1u << 1;
  static constexpr std::uint8_t kRoundWonBit = 1u << 2;
  /// The decision was produced after the request's deadline budget had
  /// already elapsed (measured at the end of the decide stage;
  /// a reply that then blows the budget in the write stage is counted in
  /// the daemon's miss metrics but cannot retroactively set this bit).
  static constexpr std::uint8_t kDeadlineMissBit = 1u << 3;

  [[nodiscard]] double win_probability() const {
    return static_cast<double>(win_q) / 65535.0;
  }
};

/// Aggregated daemon counters, in wire order. Fields are only ever
/// appended so old clients keep decoding newer daemons.
struct StatsReply {
  std::uint64_t requests = 0;
  std::uint64_t hits = 0;
  std::uint64_t fallbacks = 0;
  std::uint64_t rejected = 0;
  std::uint64_t rounds_won = 0;
  std::uint64_t pairs_generated = 0;
  std::uint64_t pairs_delivered = 0;
  std::uint64_t pairs_lost_fiber = 0;
  std::uint64_t pairs_expired = 0;
  std::uint64_t pairs_dropped_full = 0;
  std::uint64_t pairs_in_memory = 0;

  static constexpr std::uint32_t kFieldCount = 11;
};

// ---------------------------------------------------------------------------
// Encoding helpers (append to / read from a byte buffer).
// ---------------------------------------------------------------------------

class ByteWriter {
 public:
  explicit ByteWriter(std::vector<std::uint8_t>& out) : out_(out) {}

  void u8(std::uint8_t v) { out_.push_back(v); }
  void u16(std::uint16_t v) { append(&v, sizeof v); }
  void u32(std::uint32_t v) { append(&v, sizeof v); }
  void u64(std::uint64_t v) { append(&v, sizeof v); }
  void bytes(const std::uint8_t* p, std::size_t n) { append(p, n); }

 private:
  void append(const void* p, std::size_t n) {
    const auto* b = static_cast<const std::uint8_t*>(p);
    out_.insert(out_.end(), b, b + n);
  }
  std::vector<std::uint8_t>& out_;
};

class ByteReader {
 public:
  ByteReader(const std::uint8_t* data, std::size_t size)
      : data_(data), size_(size) {}

  [[nodiscard]] bool ok() const { return ok_; }
  [[nodiscard]] std::size_t remaining() const { return size_ - pos_; }

  std::uint8_t u8() { return take<std::uint8_t>(); }
  std::uint16_t u16() { return take<std::uint16_t>(); }
  std::uint32_t u32() { return take<std::uint32_t>(); }
  std::uint64_t u64() { return take<std::uint64_t>(); }

  bool bytes(std::uint8_t* dst, std::size_t n) {
    if (remaining() < n) {
      ok_ = false;
      return false;
    }
    std::memcpy(dst, data_ + pos_, n);
    pos_ += n;
    return true;
  }

 private:
  template <class T>
  T take() {
    T v{};
    if (remaining() < sizeof(T)) {
      ok_ = false;
      return v;
    }
    std::memcpy(&v, data_ + pos_, sizeof(T));
    pos_ += sizeof(T);
    return v;
  }

  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

// ---------------------------------------------------------------------------
// Message encode/decode (payload only; the frame length prefix is handled
// by the socket layer).
// ---------------------------------------------------------------------------

inline std::vector<std::uint8_t> encode_decide_request_v2(
    const DecideRequestV2& req) {
  std::vector<std::uint8_t> out;
  out.reserve(37 + req.inputs.size());
  ByteWriter w(out);
  w.u8(static_cast<std::uint8_t>(MsgType::kDecideV2));
  w.u32(req.source);
  w.u64(req.trace_id);
  w.u64(req.parent_span_id);
  w.u64(req.client_send_steady_ns);
  w.u32(req.deadline_us);
  w.u32(static_cast<std::uint32_t>(req.inputs.size()));
  if (!req.inputs.empty()) w.bytes(req.inputs.data(), req.inputs.size());
  return out;
}

inline std::vector<std::uint8_t> encode_report_request(
    const ReportRequest& req) {
  std::vector<std::uint8_t> out;
  ByteWriter w(out);
  w.u8(static_cast<std::uint8_t>(MsgType::kReport));
  w.u32(req.source);
  w.u32(req.wins);
  w.u32(req.losses);
  return out;
}

inline std::vector<std::uint8_t> encode_stats_request() {
  return {static_cast<std::uint8_t>(MsgType::kStats)};
}

inline std::vector<std::uint8_t> encode_status_response(Status status) {
  return {static_cast<std::uint8_t>(status)};
}

inline std::vector<std::uint8_t> encode_decide_response(
    const std::vector<DecisionEntry>& entries) {
  std::vector<std::uint8_t> out;
  out.reserve(5 + entries.size() * 3);
  ByteWriter w(out);
  w.u8(static_cast<std::uint8_t>(Status::kOk));
  w.u32(static_cast<std::uint32_t>(entries.size()));
  for (const DecisionEntry& e : entries) {
    w.u8(e.flags);
    w.u16(e.win_q);
  }
  return out;
}

inline std::vector<std::uint8_t> encode_stats_response(const StatsReply& s) {
  std::vector<std::uint8_t> out;
  out.reserve(5 + StatsReply::kFieldCount * 8);
  ByteWriter w(out);
  w.u8(static_cast<std::uint8_t>(Status::kOk));
  w.u32(StatsReply::kFieldCount);
  w.u64(s.requests);
  w.u64(s.hits);
  w.u64(s.fallbacks);
  w.u64(s.rejected);
  w.u64(s.rounds_won);
  w.u64(s.pairs_generated);
  w.u64(s.pairs_delivered);
  w.u64(s.pairs_lost_fiber);
  w.u64(s.pairs_expired);
  w.u64(s.pairs_dropped_full);
  w.u64(s.pairs_in_memory);
  return out;
}

inline std::optional<DecideRequestV2> decode_decide_request_v2(
    ByteReader& r) {
  DecideRequestV2 req;
  req.source = r.u32();
  req.trace_id = r.u64();
  req.parent_span_id = r.u64();
  req.client_send_steady_ns = r.u64();
  req.deadline_us = r.u32();
  const std::uint32_t count = r.u32();
  if (!r.ok() || count > kMaxFrameBytes || r.remaining() < count) {
    return std::nullopt;
  }
  req.inputs.resize(count);
  if (count > 0 && !r.bytes(req.inputs.data(), count)) return std::nullopt;
  return req;
}

inline std::optional<ReportRequest> decode_report_request(ByteReader& r) {
  ReportRequest req;
  req.source = r.u32();
  req.wins = r.u32();
  req.losses = r.u32();
  if (!r.ok()) return std::nullopt;
  return req;
}

/// Decodes a decide response payload; nullopt when not a well-formed kOk
/// decide reply (check `status_out` for kRejected before treating nullopt
/// as an error).
inline std::optional<std::vector<DecisionEntry>> decode_decide_response(
    const std::vector<std::uint8_t>& payload, Status* status_out = nullptr) {
  ByteReader r(payload.data(), payload.size());
  const auto status = static_cast<Status>(r.u8());
  if (status_out != nullptr) *status_out = status;
  if (!r.ok() || status != Status::kOk) return std::nullopt;
  const std::uint32_t count = r.u32();
  if (!r.ok() || r.remaining() != static_cast<std::size_t>(count) * 3) {
    return std::nullopt;
  }
  std::vector<DecisionEntry> entries(count);
  for (DecisionEntry& e : entries) {
    e.flags = r.u8();
    e.win_q = r.u16();
  }
  if (!r.ok()) return std::nullopt;
  return entries;
}

inline std::optional<StatsReply> decode_stats_response(
    const std::vector<std::uint8_t>& payload, Status* status_out = nullptr) {
  ByteReader r(payload.data(), payload.size());
  const auto status = static_cast<Status>(r.u8());
  if (status_out != nullptr) *status_out = status;
  if (!r.ok() || status != Status::kOk) return std::nullopt;
  const std::uint32_t fields = r.u32();
  if (!r.ok() || fields < StatsReply::kFieldCount) return std::nullopt;
  StatsReply s;
  s.requests = r.u64();
  s.hits = r.u64();
  s.fallbacks = r.u64();
  s.rejected = r.u64();
  s.rounds_won = r.u64();
  s.pairs_generated = r.u64();
  s.pairs_delivered = r.u64();
  s.pairs_lost_fiber = r.u64();
  s.pairs_expired = r.u64();
  s.pairs_dropped_full = r.u64();
  s.pairs_in_memory = r.u64();
  // Skip fields appended by newer daemons.
  for (std::uint32_t i = StatsReply::kFieldCount; i < fields && r.ok(); ++i) {
    (void)r.u64();
  }
  if (!r.ok()) return std::nullopt;
  return s;
}

}  // namespace ftl::coordd
