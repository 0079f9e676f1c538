// Sharded Figure-4 cluster simulation: the §4.1 model scaled to 10^5–10^6
// servers by running independent shards on a sim::ShardPool.
//
// Sharding model. The cluster is cut into `num_shards` sub-clusters, each
// owning a contiguous slice of balancers and servers (sim::shard_range) and
// running the full synchronous step loop on its own state: its own
// lb::ServerArray, its own strategy (and decision source), its own burst
// phase, and its own RNG streams seeded with sim::shard_seed(master, shard).
// Shards never read each other's state, so the run is deterministic in
// (seed, num_shards) no matter how the pool schedules them. Physically
// this matches the paper's setting: Fig-4 curves depend on the load N/M,
// not on N, and balancer pairs never coordinate across pairs — so a sharded
// cluster at the same per-shard load is statistically the same system
// (sharded_sim_test checks this against run_lb_sim). With num_shards == 1
// the run is run_lb_sim itself: shard 0 keeps the master seed, and both
// entry points run the one step loop in sharded_simulator.cpp.
//
// Accounting. Every output is an integer tally summed in shard order —
// requests arrived/served/still queued, CHSH rounds won/lost, and counts
// per queue length and per delay — so all of it, including the means
// (one division at the end) and the exact p95, is bit-identical across
// runs and thread counts. The merged totals land in the lock-free obs
// registry under lb.sharded.* once per run.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "lb/simulator.hpp"
#include "sim/sharded.hpp"

namespace ftl::lb {

/// The cluster fields are totals across all shards; each shard gets a
/// contiguous slice. Every shard needs >= 1 balancer and >= 2 servers, and
/// an even balancer count for the paired sources (keep num_balancers and
/// num_servers divisible by num_shards for equal per-shard load).
struct ShardedLbConfig : LbConfig {
  std::size_t num_shards = 1;
  /// "random" routes every request to a uniform server (the classical
  /// baseline); any other value is a correlate::make_source kind
  /// ("quantum-chsh", "classical-chsh", "omniscient", "independent")
  /// played by balancer pairs over shared candidate servers.
  std::string source = "random";
  double visibility = 1.0;
};

/// All-integer outputs: bit-identical across repeated runs with the same
/// (seed, num_shards), independent of thread count and scheduling.
struct ShardedCounters {
  long long arrived = 0;
  long long served = 0;
  long long still_queued = 0;
  long long rounds_won = 0;
  long long rounds_lost = 0;

  ShardedCounters& operator+=(const ShardedCounters& o) {
    arrived += o.arrived;
    served += o.served;
    still_queued += o.still_queued;
    rounds_won += o.rounds_won;
    rounds_lost += o.rounds_lost;
    return *this;
  }
  friend bool operator==(const ShardedCounters&,
                         const ShardedCounters&) = default;
};

struct ShardedLbResult {
  /// Shard-ordered sum of per_shard (the deterministic signature of a run).
  ShardedCounters counters;
  std::vector<ShardedCounters> per_shard;

  /// Distributional outputs, merged in shard order.
  double mean_queue_length = 0.0;
  double mean_delay = 0.0;
  /// Exact: util::percentile's interpolation over every measured delay.
  double p95_delay = 0.0;
  /// Served requests per server per step.
  double throughput = 0.0;
};

/// Runs the sharded simulation on `pool` (pass nullptr to run on a private
/// single-thread inline pool — still shard-partitioned, still deterministic).
[[nodiscard]] ShardedLbResult run_sharded_lb_sim(const ShardedLbConfig& cfg,
                                                 sim::ShardPool* pool = nullptr);

}  // namespace ftl::lb
