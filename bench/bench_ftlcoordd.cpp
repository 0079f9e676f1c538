// The coordination service under load: the stepped stage serves a fixed
// virtual-time schedule through coordd::serve_decide, the daemon's own
// decide path, in frames (deterministic counters, CI-gated), and the
// socket stage drives the full ftlcoordd socket path with the in-process
// loadgen (throughput + latency percentiles; timing-dependent, recorded
// but not gated).
//
// The qnet.live.requests counter in the run report is deterministic in
// (seed, config): the stepped stage issues a fixed request schedule and
// the socket stage a fixed decision count (admission is configured so no
// batch is ever rejected), so the bench-regression job can gate it at a
// tight threshold even though hit/fallback splits on the socket path vary
// with thread interleaving.
#include <algorithm>
#include <iostream>
#include <sstream>
#include <vector>

#include "bench_common.hpp"
#include "ftlcoordd/daemon.hpp"
#include "ftlcoordd/loadgen.hpp"
#include "ftlcoordd/serve.hpp"
#include "obs/metrics.hpp"
#include "obs/profiler.hpp"
#include "qnet/live_broker.hpp"
#include "util/assert.hpp"
#include "util/table.hpp"

namespace {

using namespace ftl;

std::uint64_t g_seed = 42;
constexpr std::size_t kSteppedRequests = 200000;
constexpr std::size_t kSteppedFrame = 500;
constexpr std::uint64_t kSocketDecisions = 500000;

qnet::LiveBrokerConfig broker_config(std::size_t sources) {
  qnet::LiveBrokerConfig cfg;
  cfg.sources = sources;
  cfg.qnet.pair_rate_hz = 2e6;
  cfg.qnet.fiber_km = 0.0;
  return cfg;
}

struct SteppedResult {
  std::uint64_t requests = 0;
  std::uint64_t hits = 0;
  std::uint64_t rounds_won = 0;
  std::uint64_t deadline_hit = 0;
  std::uint64_t deadline_miss = 0;
  double wall_s = 0.0;
};

// Deadline model for the stepped stage, in virtual time: a decision that
// consumed a live pair coordinates instantly (the paper's FTL property —
// the correlation is already local), while a classical fallback pays one
// classical RTT, which blows a sub-RTT budget by construction. The
// resulting coordd.deadline.* counters are a pure function of the hit/
// fallback schedule, i.e. of (seed, config) — which is what lets CI gate
// them bit-for-bit while the daemon's wall-clock misses stay ungated.
constexpr double kDeadlineBudgetS = 2e-6;
constexpr double kClassicalRttS = 5e-6;

// Stepped broker throughput: a fixed virtual-time request schedule against
// one source, served in frames of kSteppedFrame through serve_decide.
// Decision i has input i & 1 and time i / 1e6 s, so every qnet.live.*
// counter this touches is a pure function of (seed, config, schedule).
SteppedResult run_stepped(std::size_t requests) {
  // Tag profiler samples taken inside this loop so the folded stacks join
  // against the coordd.stage_us attribution (`stage:stepped;...` roots
  // around serve_decide's own stage tags).
  const obs::ProfileStage profile_tag("stepped");
  qnet::LiveBroker broker(broker_config(1), g_seed);
  obs::Counter& m_deadline_hit = obs::registry().counter("coordd.deadline.hit");
  obs::Counter& m_deadline_miss = obs::registry().counter(
      "coordd.deadline.miss", {{"stage", "pair_acquire"}});
  const double request_rate_hz = 1e6;
  SteppedResult out;
  out.requests = requests;
  coordd::DecideRequestV2 req;
  std::vector<coordd::DecisionEntry> entries;
  std::vector<qnet::LiveBroker::Decision> decisions;
  std::size_t i = 0;
  const auto decision_time = [&i, request_rate_hz] {
    return static_cast<double>(i++) / request_rate_hz;
  };
  const auto t0 = std::chrono::steady_clock::now();
  while (i < requests) {
    req.inputs.clear();
    for (std::size_t k = i; k < std::min(requests, i + kSteppedFrame); ++k) {
      req.inputs.push_back(static_cast<std::uint8_t>(k & 1u));
    }
    const coordd::Served served =
        coordd::serve_decide(broker, req, decision_time, entries, decisions);
    // Frames of kSteppedFrame stay far below the default admission bound.
    FTL_ASSERT(served.admitted);
    for (const coordd::DecisionEntry& e : entries) {
      const bool quantum = (e.flags & coordd::DecisionEntry::kQuantumBit) != 0;
      out.hits += quantum ? 1 : 0;
      out.rounds_won +=
          (e.flags & coordd::DecisionEntry::kRoundWonBit) != 0 ? 1 : 0;
      const double service_s = quantum ? 0.0 : kClassicalRttS;
      if (service_s > kDeadlineBudgetS) {
        ++out.deadline_miss;
        m_deadline_miss.inc();
      } else {
        ++out.deadline_hit;
        m_deadline_hit.inc();
      }
    }
  }
  out.wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  return out;
}

// The real thing: daemon on ephemeral loopback ports, loadgen workers
// batching decide frames over TCP. decisions/s here is the headline number
// the acceptance bar (>= 1M decisions/s) refers to.
coordd::LoadgenResult run_socket(std::uint64_t decisions) {
  coordd::DaemonConfig cfg;
  cfg.seed = g_seed;
  cfg.broker = broker_config(2);
  coordd::Daemon daemon(cfg);
  if (!daemon.start()) {
    coordd::LoadgenResult failed;
    failed.error = "failed to bind loopback ports";
    return failed;
  }
  coordd::LoadgenConfig lg;
  lg.port = daemon.port();
  lg.threads = 2;
  lg.sources = 2;
  lg.decisions = decisions;
  std::ostringstream sink;
  coordd::LoadgenResult result = coordd::run_loadgen(lg, sink);
  daemon.stop();
  return result;
}

}  // namespace

// Shared obs flags (see bench_common.hpp): --seed, --metrics-out,
// --metrics-every, --prom-out, --trace-out, and --profile-out /
// --profile-hz (in-process sampling CPU profile;
// folded output pipes straight into flamegraph.pl).
int main(int argc, char** argv) {
  const ftl::bench::Options obs_opts =
      ftl::bench::parse_args(argc, argv, g_seed);
  g_seed = obs_opts.seed;
  ftl::bench::ObsSession obs_session("bench_ftlcoordd", obs_opts);
  obs_session.set_config("stepped=200000 socket=500000 sources=2");

  const SteppedResult stepped = run_stepped(kSteppedRequests);
  const coordd::LoadgenResult socket = run_socket(kSocketDecisions);
  if (!socket.ok) {
    std::cerr << "bench_ftlcoordd: socket stage FAILED: " << socket.error
              << "\n";
    return 1;
  }

  std::cout << "\nftlcoordd coordination service under load (seed " << g_seed
            << "):\n";
  util::Table t({"stage", "decisions", "decisions/s", "hit fraction",
                 "win fraction"});
  t.add_row({"stepped broker", static_cast<double>(stepped.requests),
             static_cast<double>(stepped.requests) / stepped.wall_s,
             static_cast<double>(stepped.hits) /
                 static_cast<double>(stepped.requests),
             static_cast<double>(stepped.rounds_won) /
                 static_cast<double>(stepped.requests)});
  t.add_row({"socket loadgen", static_cast<double>(socket.decisions_ok),
             socket.achieved_rate_hz(), socket.hit_fraction(),
             socket.decisions_ok > 0
                 ? static_cast<double>(socket.rounds_won) /
                       static_cast<double>(socket.decisions_ok)
                 : 0.0});
  t.print(std::cout);
  std::cout << "stepped deadline (" << kDeadlineBudgetS * 1e6
            << " us budget, classical RTT " << kClassicalRttS * 1e6
            << " us): " << stepped.deadline_hit << " hit, "
            << stepped.deadline_miss << " missed\n";
  std::cout << "socket batch RTT p50/p95/p99 us: "
            << socket.latency.quantile(0.5) * 1e6 << " / "
            << socket.latency.quantile(0.95) * 1e6 << " / "
            << socket.latency.quantile(0.99) * 1e6 << "\n";
  return 0;
}
