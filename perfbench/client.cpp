#include "client.hpp"

#include <poll.h>
#include <sys/prctl.h>

#include <algorithm>
#include <cmath>
#include <deque>
#include <sstream>
#include <thread>

#include "ftlcoordd/net.hpp"
#include "perfbench.hpp"

namespace perfbench {

namespace coordd = ftl::coordd;

namespace {

/// A classical-fallback decision plays "output = input" and wins the
/// flipped-CHSH round with probability 3/4, encoded as round(0.75 * 65535).
constexpr std::uint16_t kFallbackWinQ = 49151;
/// A traced phase records the spans of every 16th frame: enough to see each
/// layer boundary without the span buffer outgrowing the run.
constexpr std::size_t kFrameSpanEvery = 16;
/// Frames still unsent this long after the phase ends are abandoned.
constexpr std::int64_t kAbandonAfterNs = 250'000'000;
/// Replies still missing this long after the phase ends are lost and leave
/// the connection unusable.
constexpr std::int64_t kDrainTimeoutNs = 2'000'000'000;
constexpr std::uint8_t kKnownFlags = coordd::DecisionEntry::kOutputBit |
                                     coordd::DecisionEntry::kQuantumBit |
                                     coordd::DecisionEntry::kRoundWonBit;

struct InFlight {
  std::size_t frame = 0;
  std::int64_t due_ns = 0;
  std::int64_t write_end_ns = 0;
  std::size_t offset = 0;
  std::uint64_t span = 0;
};

/// Waits until `fd` is readable or `until_ns` passes; true when readable.
bool wait_readable(int fd, std::int64_t until_ns) {
  const std::int64_t left = std::max<std::int64_t>(0, until_ns - now_ns());
  timespec ts{static_cast<time_t>(left / 1'000'000'000),
              static_cast<long>(left % 1'000'000'000)};
  pollfd pfd{fd, POLLIN, 0};
  const int rc = ::ppoll(&pfd, 1, &ts, nullptr);
  return rc > 0 && (pfd.revents & (POLLIN | POLLHUP | POLLERR)) != 0;
}

}  // namespace

void PhaseStats::merge(const PhaseStats& o) {
  due_s.insert(due_s.end(), o.due_s.begin(), o.due_s.end());
  latency_us.insert(latency_us.end(), o.latency_us.begin(), o.latency_us.end());
  lag_us.insert(lag_us.end(), o.lag_us.begin(), o.lag_us.end());
  frames_due += o.frames_due;
  frames_sent += o.frames_sent;
  frames_ok += o.frames_ok;
  rejected += o.rejected;
  malformed += o.malformed;
  errored += o.errored;
  decisions_ok += o.decisions_ok;
  decisions_rejected += o.decisions_rejected;
  quantum += o.quantum;
  won += o.won;
  bad_entries += o.bad_entries;
  write_us_sum += o.write_us_sum;
  read_wait_us_sum += o.read_wait_us_sum;
  connection_lost = connection_lost || o.connection_lost;
}

PhaseStats run_phase(int fd, const PhaseConfig& cfg) {
  // Sleep precision matters at tens of thousands of frames per second: the
  // default 50 us timer slack would smear every due time.
  (void)::prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
  const std::vector<std::uint8_t>& pool = *cfg.inputs;
  const double interval_ns =
      static_cast<double>(cfg.batch) * 1e9 / cfg.rate_hz;
  const auto frames =
      static_cast<std::size_t>(static_cast<double>(cfg.duration_ns) / interval_ns);
  const auto due = [&](std::size_t k) {
    return cfg.start_ns +
           static_cast<std::int64_t>(static_cast<double>(k) * interval_ns);
  };
  const std::int64_t end_ns = cfg.start_ns + cfg.duration_ns;

  PhaseStats st;
  st.frames_due = frames;
  st.latency_us.assign(frames, kFailedLatency);
  st.lag_us.assign(frames, kFailedLatency);
  st.due_s.resize(frames);
  for (std::size_t k = 0; k < frames; ++k) {
    st.due_s[k] = static_cast<double>(due(k) - cfg.start_ns) / 1e9;
  }

  coordd::DecideRequestV2 req;
  req.source = cfg.source;
  req.inputs.resize(cfg.batch);
  std::vector<std::uint8_t> reply;
  std::deque<InFlight> inflight;
  std::size_t sent = 0;

  const auto send_one = [&](std::int64_t now) {
    InFlight f;
    f.frame = sent;
    f.due_ns = due(sent);
    f.offset = (cfg.input_offset + sent * cfg.batch) % pool.size();
    for (std::size_t i = 0; i < cfg.batch; ++i) {
      req.inputs[i] = pool[(f.offset + i) % pool.size()];
    }
    req.client_send_steady_ns = static_cast<std::uint64_t>(now);
    f.span = sent % kFrameSpanEvery == 0 ? span_new_id() : 0;
    const std::vector<std::uint8_t> payload =
        coordd::encode_decide_request_v2(req);
    const std::int64_t w0 = now_ns();
    const bool ok = coordd::write_frame(fd, payload);
    f.write_end_ns = now_ns();
    if (f.span != 0) {
      span_record("ftlcoordd.net.write_frame", w0, f.write_end_ns, f.span, f.span);
    }
    st.write_us_sum += static_cast<double>(f.write_end_ns - w0) / 1e3;
    st.lag_us[f.frame] = static_cast<double>(w0 - f.due_ns) / 1e3;
    ++st.frames_sent;
    ++sent;
    if (!ok) {
      st.connection_lost = true;
      return;
    }
    inflight.push_back(f);
  };

  const auto read_one = [&]() {
    const std::int64_t r0 = now_ns();
    if (!coordd::read_frame(fd, reply)) {
      st.connection_lost = true;
      return;
    }
    const std::int64_t r1 = now_ns();
    const InFlight f = inflight.front();
    inflight.pop_front();
    if (f.span != 0) {
      span_record("ftlcoordd.net.read_frame", r0, r1, f.span, f.span);
      span_record("coordd.frame", f.due_ns, r1, 0, f.span, f.span);
    }
    st.read_wait_us_sum += static_cast<double>(r1 - f.write_end_ns) / 1e3;

    coordd::Status status = coordd::Status::kOk;
    const auto entries = coordd::decode_decide_response(reply, &status);
    if (!entries) {
      if (status == coordd::Status::kRejected) {
        ++st.rejected;
        st.decisions_rejected += cfg.batch;
      } else {
        ++st.malformed;
      }
      return;
    }
    if (entries->size() != cfg.batch) {
      ++st.malformed;
      return;
    }
    for (std::size_t i = 0; i < entries->size(); ++i) {
      const coordd::DecisionEntry& e = (*entries)[i];
      const std::uint8_t input = pool[(f.offset + i) % pool.size()] & 1u;
      const bool quantum = (e.flags & coordd::DecisionEntry::kQuantumBit) != 0;
      const bool output = (e.flags & coordd::DecisionEntry::kOutputBit) != 0;
      const bool bad = (e.flags & ~kKnownFlags) != 0 ||
                       (quantum ? e.win_q < 32767
                                : (e.win_q != kFallbackWinQ ||
                                   output != (input != 0)));
      st.bad_entries += bad ? 1 : 0;
      st.quantum += quantum ? 1 : 0;
      st.won += (e.flags & coordd::DecisionEntry::kRoundWonBit) != 0 ? 1 : 0;
    }
    ++st.frames_ok;
    st.decisions_ok += cfg.batch;
    st.latency_us[f.frame] = static_cast<double>(r1 - f.due_ns) / 1e3;
  };

  while (!st.connection_lost) {
    std::int64_t now = now_ns();
    const bool abandon = now > end_ns + kAbandonAfterNs;
    while (!abandon && sent < frames && due(sent) <= now &&
           inflight.size() < cfg.window && !st.connection_lost) {
      send_one(now);
      now = now_ns();
    }
    if ((sent == frames || abandon) && inflight.empty()) break;
    if (now > end_ns + kDrainTimeoutNs) {
      st.connection_lost = true;  // replies never came back
      break;
    }
    const bool can_send = !abandon && sent < frames && inflight.size() < cfg.window;
    const std::int64_t wake =
        can_send ? due(sent) : end_ns + kDrainTimeoutNs;
    if (inflight.empty()) {
      if (can_send && wake > now) {
        const std::int64_t left = wake - now;
        const timespec ts{static_cast<time_t>(left / 1'000'000'000),
                          static_cast<long>(left % 1'000'000'000)};
        ::nanosleep(&ts, nullptr);
      }
      continue;
    }
    if (wait_readable(fd, wake)) {
      read_one();
      // Drain whatever else already arrived before sending again.
      while (!st.connection_lost && !inflight.empty() &&
             wait_readable(fd, 0)) {
        read_one();
      }
    }
  }
  st.errored = frames - st.frames_ok - st.rejected - st.malformed;
  return st;
}

double windowed_quantile(const PhaseStats& st, const std::vector<double>& values,
                         double q, std::size_t windows, double duration_s) {
  std::vector<std::vector<double>> per(std::max<std::size_t>(windows, 1));
  for (std::size_t k = 0; k < values.size() && k < st.due_s.size(); ++k) {
    const auto w = static_cast<std::size_t>(st.due_s[k] / duration_s *
                                            static_cast<double>(per.size()));
    per[std::min(w, per.size() - 1)].push_back(values[k]);
  }
  std::vector<double> qs;
  for (std::vector<double>& v : per) {
    if (!v.empty()) qs.push_back(quantile(v, q));
  }
  return median(qs);
}

std::optional<coordd::StatsReply> fetch_stats(int fd) {
  const ScopedSpan span("ftlcoordd.protocol.stats");
  std::vector<std::uint8_t> reply;
  if (!coordd::write_frame(fd, coordd::encode_stats_request()) ||
      !coordd::read_frame(fd, reply)) {
    return std::nullopt;
  }
  return coordd::decode_stats_response(reply);
}

bool stats_conserved(const coordd::StatsReply& s) {
  return s.pairs_generated == s.pairs_lost_fiber + s.pairs_delivered &&
         s.pairs_delivered == s.hits + s.pairs_expired +
                                  s.pairs_dropped_full + s.pairs_in_memory;
}

// ---------------------------------------------------------------------------
// Self-test: a fake server on loopback answers every decide frame at once,
// except that it sleeps once, before answering frame `kStallFrame`. An
// open-loop client timing from due times must charge that stall to the
// frames due during it, and its generator lag must show the backlog the
// window cap forced; a client timing from actual send times would not.
// ---------------------------------------------------------------------------

namespace {
constexpr std::size_t kStallFrame = 400;
constexpr std::int64_t kStallNs = 20'000'000;
constexpr double kFrameRate = 10'000.0;
constexpr std::size_t kBatch = 8;
}  // namespace

void latency_self_test(Result& out) {
  const int lfd = coordd::listen_tcp(0);
  out.check(lfd >= 0, "self-test: fake server could not listen");
  if (lfd < 0) return;
  const std::uint16_t port = coordd::bound_port(lfd);
  std::thread server([lfd] {
    const int fd = coordd::accept_with_timeout(lfd, 5000);
    if (fd < 0) return;
    std::vector<std::uint8_t> payload;
    std::size_t frame = 0;
    while (coordd::read_frame(fd, payload)) {
      coordd::ByteReader r(payload.data(), payload.size());
      (void)r.u8();
      const auto req = coordd::decode_decide_request_v2(r);
      if (!req) break;
      if (frame++ == kStallFrame) {
        std::this_thread::sleep_for(std::chrono::nanoseconds(kStallNs));
      }
      std::vector<coordd::DecisionEntry> entries(req->inputs.size());
      for (std::size_t i = 0; i < entries.size(); ++i) {
        entries[i].flags = req->inputs[i] & 1u;
        entries[i].win_q = kFallbackWinQ;
      }
      if (!coordd::write_frame(fd, coordd::encode_decide_response(entries))) {
        break;
      }
    }
    coordd::close_fd(fd);
  });

  const int fd = coordd::connect_tcp("127.0.0.1", port);
  std::vector<std::uint8_t> inputs(4096);
  for (std::size_t i = 0; i < inputs.size(); ++i) inputs[i] = (i * 7 / 3) & 1u;
  PhaseConfig cfg;
  cfg.batch = kBatch;
  cfg.rate_hz = kFrameRate * kBatch;
  cfg.start_ns = now_ns() + 2'000'000;
  cfg.duration_ns = 120'000'000;
  cfg.window = 16;
  cfg.inputs = &inputs;
  PhaseStats st;
  if (fd >= 0) st = run_phase(fd, cfg);
  coordd::close_fd(fd);
  server.join();
  coordd::close_fd(lfd);

  const double stall_us = static_cast<double>(kStallNs) / 1e3;
  const double frame_us = 1e6 / kFrameRate;
  const auto frames_in_stall = static_cast<std::size_t>(stall_us / frame_us);
  bool ok = fd >= 0 && !st.connection_lost && st.failed_frames() == 0 &&
            st.bad_entries == 0 && st.latency_us.size() > kStallFrame + 2 * frames_in_stall;
  double stall_max = 0.0;
  std::size_t late_later = 0;
  std::vector<double> before;
  std::vector<double> tail;
  if (ok) {
    for (std::size_t k = 0; k < st.latency_us.size(); ++k) {
      const double l = st.latency_us[k];
      if (k < kStallFrame) before.push_back(l);
      if (k >= kStallFrame && k < kStallFrame + 2 * frames_in_stall) {
        stall_max = std::max(stall_max, l);
        // A frame due t after the stall began cannot be answered before
        // the stall ends: its due-time latency is at least stall - t.
        const double expect =
            stall_us - static_cast<double>(k - kStallFrame) * frame_us;
        if (k > kStallFrame && expect > 0.5 * stall_us && l >= 0.8 * expect) {
          ++late_later;
        }
      }
      if (k + frames_in_stall >= st.latency_us.size()) tail.push_back(l);
    }
  }
  double lag_max = 0.0;
  for (const double l : st.lag_us) {
    if (std::isfinite(l)) lag_max = std::max(lag_max, l);
  }
  const bool stall_seen = stall_max >= 0.9 * stall_us;
  const bool later_charged = late_later >= frames_in_stall / 4;
  // With 16 frames in flight the sender blocks ~1.6 ms into the stall, so
  // the rest of it must surface as lag on the frames queued behind it.
  const bool lag_seen = lag_max >= 0.5 * stall_us;
  const bool recovered = median(tail) < 0.25 * stall_us;
  std::ostringstream msg;
  msg << "self-test: stall " << stall_us << " us at frame " << kStallFrame
      << ": max due-time latency " << stall_max << " us, later frames charged "
      << late_later << "/" << frames_in_stall / 2 << ", max lag " << lag_max
      << " us, p50 before " << median(before) << " us, tail p50 "
      << median(tail) << " us";
  out.note(msg.str());
  out.check(ok && stall_seen && later_charged && lag_seen && recovered,
            "open-loop latency accounting self-test (" + msg.str() + ")");
}

}  // namespace perfbench
