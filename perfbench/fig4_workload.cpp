// fig4_sharded: lb::run_sharded_lb_sim at 1e5 servers, load 0.95, source
// quantum-chsh, ~1024 servers per shard, on a sim::ShardPool of at most
// four workers. A closed loop: each run starts when the previous one ends.
#include "fig4_workload.hpp"

#include <cmath>
#include <memory>
#include <numbers>
#include <sstream>

#include "perfbench.hpp"
#include "sim/sharded.hpp"

namespace perfbench {

namespace {

constexpr std::size_t kServers = 100000;
constexpr double kLoad = 0.95;
constexpr std::size_t kServersPerShard = 1024;
constexpr std::size_t kSetupRepeats = 21;
constexpr std::size_t kMinRuns = 3;

std::string fmt(double v) {
  std::ostringstream s;
  s.precision(5);
  s << v;
  return s.str();
}

}  // namespace

ftl::lb::ShardedLbConfig fig4_config(std::uint64_t seed) {
  ftl::lb::ShardedLbConfig cfg;
  const std::size_t shards = (kServers + kServersPerShard - 1) / kServersPerShard;
  const std::size_t shard_servers = kServers / shards;
  // Paired sources pair adjacent balancers: round the per-shard balancer
  // count to the nearest even number at the requested load.
  std::size_t shard_balancers =
      static_cast<std::size_t>(static_cast<double>(shard_servers) * kLoad + 0.5);
  shard_balancers += shard_balancers % 2;
  cfg.num_servers = shard_servers * shards;
  cfg.num_balancers = shard_balancers * shards;
  cfg.num_shards = shards;
  cfg.warmup_steps = 100;
  cfg.measure_steps = 400;
  cfg.seed = seed;
  cfg.source = "quantum-chsh";
  return cfg;
}

std::string fig4_violation(const ftl::lb::ShardedLbResult& r) {
  for (std::size_t s = 0; s < r.per_shard.size(); ++s) {
    const auto& c = r.per_shard[s];
    if (c.arrived != c.served + c.still_queued) {
      return "shard " + std::to_string(s) + ": arrived " +
             std::to_string(c.arrived) + " != served + still_queued " +
             std::to_string(c.served + c.still_queued);
    }
  }
  const auto& c = r.counters;
  if (c.arrived != c.served + c.still_queued) return "totals: arrived != served + still_queued";
  const double rounds = static_cast<double>(c.rounds_won + c.rounds_lost);
  if (rounds <= 0.0) return "no CHSH rounds played";
  // Quantum CHSH at full visibility wins with probability cos^2(pi/8);
  // 5 binomial standard errors is the acceptance interval.
  const double p0 = std::pow(std::cos(std::numbers::pi / 8.0), 2);
  const double p = static_cast<double>(c.rounds_won) / rounds;
  const double ci = 5.0 * std::sqrt(p0 * (1.0 - p0) / rounds);
  if (std::abs(p - p0) > ci) {
    return "CHSH win rate " + fmt(p) + " outside " + fmt(p0) + " +- " + fmt(ci);
  }
  return "";
}

void run_fig4(const Options& opt, Result& out) {
  std::vector<double> setup_s;
  ftl::lb::ShardedLbConfig cfg;
  std::unique_ptr<ftl::sim::ShardPool> pool;
  for (std::size_t i = 0; i < kSetupRepeats; ++i) {
    pool.reset();
    const std::int64_t t0 = now_ns();
    cfg = fig4_config(sub_seed(opt.seed, 3));
    pool = std::make_unique<ftl::sim::ShardPool>(worker_count());
    setup_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
  }

  // One untimed run first, so page faults of the shard state do not land
  // in the measured runs; its counters are the reference every timed run
  // must reproduce exactly (the engine is deterministic in seed and shards).
  ftl::lb::ShardedCounters reference;
  std::size_t runs = 0;
  std::size_t failed_runs = 0;
  {
    const ScopedSpan span("lb.run_sharded_lb_sim");
    const auto r = ftl::lb::run_sharded_lb_sim(cfg, pool.get());
    reference = r.counters;
    const std::string bad = fig4_violation(r);
    out.check(bad.empty(), "fig4: " + bad);
    ++runs;
    failed_runs += bad.empty() ? 0 : 1;
  }

  std::vector<double> run_us;
  std::vector<double> rates;
  double cpu_ns = 0.0;
  double requests = 0.0;
  long long won = 0;
  long long rounds = 0;
  const std::int64_t end = now_ns() + static_cast<std::int64_t>(opt.seconds * 1e9);
  while (run_us.size() < kMinRuns || now_ns() < end) {
    const double c0 = self_cpu_ns();
    const std::int64_t t0 = now_ns();
    ftl::lb::ShardedLbResult r;
    {
      const ScopedSpan span("lb.run_sharded_lb_sim");
      r = ftl::lb::run_sharded_lb_sim(cfg, pool.get());
    }
    const std::int64_t t1 = now_ns();
    cpu_ns += self_cpu_ns() - c0;
    const double dt_us = static_cast<double>(t1 - t0) / 1e3;
    run_us.push_back(dt_us);
    rates.push_back(static_cast<double>(r.counters.arrived) / (dt_us / 1e6));
    requests += static_cast<double>(r.counters.arrived);
    won += r.counters.rounds_won;
    rounds += r.counters.rounds_won + r.counters.rounds_lost;
    std::string bad = fig4_violation(r);
    if (bad.empty() && !(r.counters == reference)) {
      bad = "counters differ from the first run with the same seed";
    }
    out.check(bad.empty(), "fig4: " + bad);
    ++runs;
    failed_runs += bad.empty() ? 0 : 1;
  }
  out.count(runs, failed_runs);

  std::vector<double> lat = run_us;
  out.metric("setup_s", median(setup_s), "s");
  out.metric("p50_us", quantile(lat, 0.5), "us");
  out.metric("capacity_per_s", median(rates), "1/s");
  out.metric("cpu_ns_per_item", cpu_ns / requests, "ns");
  out.metric("win_fraction", static_cast<double>(won) / static_cast<double>(rounds),
             "fraction");
  out.metric("peak_rss_mb", proc_peak_rss_mb(0), "MiB");

  out.note("fig4_sharded: " + std::to_string(cfg.num_servers) + " servers, " +
           std::to_string(cfg.num_balancers) + " balancers, " +
           std::to_string(cfg.num_shards) + " shards on " +
           std::to_string(pool->num_threads()) + " workers, closed loop");
  out.note("  requests_per_s = " + fmt(median(rates)) + " (median of " +
           std::to_string(rates.size()) + " runs of " +
           fmt(static_cast<double>(reference.arrived)) + " requests)");
  out.note("  run time p50 = " + fmt(quantile(lat, 0.5)) + " us, p99 = " +
           fmt(quantile(lat, 0.99)) + " us (n=" + std::to_string(lat.size()) +
           " runs), CHSH win rate = " +
           fmt(static_cast<double>(won) / static_cast<double>(rounds)) +
           ", failed_frac = " + fmt(static_cast<double>(failed_runs) /
                                    static_cast<double>(runs)));
}

}  // namespace perfbench
