// The §4.1 cluster simulation: N load balancers, M servers, discrete time.
//
// Each timestep every balancer receives a batch of requests (type C with
// probability p_colocate, else type E), routes each via the strategy, and
// every server then runs one step of its service policy. Figure 4 reports
// the time-averaged queue length as a function of load N/M; we additionally
// record queueing delay (the caption's metric), per-type delays, throughput,
// and a conservation check.
//
// run_lb_sim is the one-shard case of run_sharded_lb_sim: both entry points
// run the same step loop (sharded_simulator.cpp). Queue lengths and delays
// are integers, so every output comes from exact integer sums and
// per-delay counts; p95_delay is the exact interpolated percentile.
#pragma once

#include <cstdint>
#include <optional>

#include "lb/strategy.hpp"
#include "lb/types.hpp"

namespace ftl::lb {

/// Optional two-state Markov-modulated arrival process. The chain sits in
/// a HIGH or LOW activity phase; each balancer independently receives its
/// batch with the phase's activity probability. With both activities at 1
/// this degenerates to the paper's deterministic one-request-per-step
/// model. Used by the caveats bench to test whether the Figure-4 advantage
/// survives bursty traffic.
struct BurstModel {
  double high_activity = 1.0;
  double low_activity = 0.3;
  /// Mean steps spent in each phase before switching.
  double mean_dwell_steps = 50.0;
};

struct LbConfig {
  std::size_t num_balancers = 100;
  std::size_t num_servers = 50;
  /// P(request is type C).
  double p_colocate = 0.5;
  /// Requests per balancer per step (the paper uses 1; the local-batching
  /// caveat uses more).
  std::size_t batch_size = 1;
  /// If set, arrivals are Markov-modulated instead of deterministic.
  std::optional<BurstModel> burst;
  ServicePolicy policy = ServicePolicy::kPaperCFirst;
  /// Steps discarded before measurement starts.
  long warmup_steps = 1000;
  long measure_steps = 4000;
  std::uint64_t seed = 1;

  [[nodiscard]] double load() const {
    return static_cast<double>(num_balancers * batch_size) /
           static_cast<double>(num_servers);
  }
};

struct LbResult {
  /// Mean queue length per server, time-averaged post-warmup (Fig 4 y-axis
  /// per the body text).
  double mean_queue_length = 0.0;
  /// Mean queueing delay (steps from arrival to service) of requests that
  /// were served during measurement (Fig 4 caption's metric).
  double mean_delay = 0.0;
  /// Exact: util::percentile's interpolation over every measured delay.
  double p95_delay = 0.0;
  double mean_delay_c = 0.0;
  double mean_delay_e = 0.0;
  /// Served requests per server per step.
  double throughput = 0.0;
  /// Conservation check inputs: everything that arrived is either served
  /// or still queued at the end.
  long long arrived = 0;
  long long served = 0;
  long long still_queued = 0;
};

/// Runs the whole cluster as one shard with seed `cfg.seed`. Exports
/// lb.*{strategy} (and lb.chsh.*{source} for paired strategies) once, after
/// the run.
[[nodiscard]] LbResult run_lb_sim(const LbConfig& cfg, LbStrategy& strategy);

}  // namespace ftl::lb
