// The decide path, written once: admission, one broker decision per input
// and reply packing for one decoded decide frame. The daemon, the stepped
// stage of bench_ftlcoordd and the in-process tests all call serve_decide,
// so the code they measure is the code the daemon serves.
//
// serve_decide owns no fd and records no metric. It takes the time of each
// decision from the caller: the daemon passes seconds on its own clock,
// the bench and the tests a virtual schedule. It is a template so the
// daemon pays no indirect call per decision.
#pragma once

#include <algorithm>
#include <chrono>
#include <vector>

#include "ftlcoordd/protocol.hpp"
#include "obs/profiler.hpp"
#include "qnet/live_broker.hpp"

namespace ftl::coordd {

/// What serve_decide did with one frame. The stage boundaries are steady
/// clock readings at the end of admission, of the broker decisions and of
/// reply packing; they stay unset when the frame was refused.
struct Served {
  bool admitted = false;
  std::chrono::steady_clock::time_point t_admit, t_acquire, t_decide;
};

/// The reply entry of one broker decision.
[[nodiscard]] inline DecisionEntry pack_entry(
    const qnet::LiveBroker::Decision& d) {
  DecisionEntry e;
  if (d.output != 0) e.flags |= DecisionEntry::kOutputBit;
  if (d.quantum) e.flags |= DecisionEntry::kQuantumBit;
  if (d.round_won) e.flags |= DecisionEntry::kRoundWonBit;
  e.win_q = static_cast<std::uint16_t>(
      std::min(65535.0, d.win_probability * 65535.0 + 0.5));
  return e;
}

/// Serves one decide frame against `broker`. An empty frame, or one that
/// admission control refuses, draws nothing and leaves `entries` as it
/// was. Otherwise `entries` gets one entry per input, in input order, from
/// `broker.decide(req.source, input, decision_time())`. `decisions` is
/// scratch the caller keeps across frames. The caller checks
/// `req.source` against the broker's sources first.
///
/// The profile tags of the stages follow the same boundaries the daemon's
/// stage histograms time; the caller's tag is back in place on return.
template <class DecisionTime>
Served serve_decide(qnet::LiveBroker& broker, const DecideRequestV2& req,
                    DecisionTime&& decision_time,
                    std::vector<DecisionEntry>& entries,
                    std::vector<qnet::LiveBroker::Decision>& decisions) {
  using Clock = std::chrono::steady_clock;
  Served out;
  const std::size_t n = req.inputs.size();
  // Bounded-queue backpressure: refuse the whole frame.
  if (n == 0 || !broker.try_admit(n)) return out;
  out.admitted = true;
  out.t_admit = Clock::now();

  const char* caller_stage = obs::set_profile_stage("pair_acquire");
  decisions.clear();
  decisions.reserve(n);
  for (const std::uint8_t input : req.inputs) {
    decisions.push_back(broker.decide(req.source, input, decision_time()));
  }
  broker.release(n);
  out.t_acquire = Clock::now();

  obs::set_profile_stage("decide");
  entries.clear();
  entries.reserve(n);
  for (const auto& d : decisions) entries.push_back(pack_entry(d));
  out.t_decide = Clock::now();
  obs::set_profile_stage(caller_stage);
  return out;
}

}  // namespace ftl::coordd
