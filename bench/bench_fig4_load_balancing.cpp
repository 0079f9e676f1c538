// Figure 4: average queue length (and queueing delay, the caption's metric)
// vs system load N/M, for classical random vs CHSH-paired quantum load
// balancing. N = 100 balancers as in the paper; M is swept.
//
// Expected shape: both curves are flat at low load and blow up past a knee;
// the quantum curve's knee sits at strictly higher load. An omniscient
// upper bound is included, and a second sweep checks the paper's note that
// the result depends on N/M, not N.
//
// Scaled configurations: the sharded engine runs the same physics at
// 10^4–10^6 servers (ROADMAP's "millions of servers" regime). Extra flags:
//   --shards <n>   shard count for the scaled section (0 = one shard per
//                  1024 servers)
//   --servers <m>  server count for the scaled summary table (default 1e5)
// Scaled runs record lb.sharded.* counters; requests/s lands in the
// BENCH_fig4_load_balancing.json trajectory via ftlbench run.
#include <algorithm>
#include <chrono>
#include <cstring>
#include <iostream>
#include <memory>

#include "bench_common.hpp"
#include "lb/sharded_simulator.hpp"
#include "lb/simulator.hpp"
#include "lb/strategy.hpp"
#include "sim/sharded.hpp"
#include "util/args.hpp"
#include "util/table.hpp"

namespace {

using ftl::lb::LbConfig;
using ftl::lb::make_strategy;
using ftl::lb::ShardedLbConfig;
using ftl::lb::ShardedLbResult;

std::uint64_t g_seed = 20250705;  // override with --seed
std::size_t g_shards = 0;         // override with --shards; 0 = auto
std::size_t g_servers = 100000;   // override with --servers

constexpr std::size_t kBalancers = 100;
// M values giving loads N/M from 0.67 to 2.5.
constexpr std::size_t kServerSweep[] = {150, 120, 100, 86, 76, 66,
                                        60,  54,  50,  44, 40};

LbConfig base_config(std::size_t servers) {
  LbConfig cfg;
  cfg.num_balancers = kBalancers;
  cfg.num_servers = servers;
  cfg.p_colocate = 0.5;
  cfg.warmup_steps = 1000;
  cfg.measure_steps = 4000;
  cfg.seed = g_seed;
  return cfg;
}

std::size_t resolve_shards(std::size_t servers) {
  if (g_shards > 0) return g_shards;
  // Shards buy cache residency as well as parallelism: a ~1024-server
  // sub-cluster's queues stay cache-resident through its step loop, which
  // roughly doubles single-core throughput at 10^5-10^6 servers over a
  // one-shard run. Fine-grained shards also keep every pool worker busy,
  // and — unlike a shards-per-core rule — make the sub-cluster sizes, and
  // with them the trajectory's deterministic counters, machine-independent.
  return std::max<std::size_t>(1, (servers + 1023) / 1024);
}

ftl::sim::ShardPool& shared_pool() {
  static ftl::sim::ShardPool pool;  // one worker per core, reused across runs
  return pool;
}

/// Builds a scaled config with identical per-shard sub-clusters: servers
/// split evenly, per-shard balancer count rounded to an even number (paired
/// sources pair adjacent balancers) hitting the requested load N/M.
ShardedLbConfig scaled_config(std::size_t servers, double load,
                              std::size_t shards, long warmup, long measure,
                              const std::string& source) {
  ShardedLbConfig cfg;
  const std::size_t shard_servers =
      std::max<std::size_t>(2, servers / shards);
  std::size_t shard_balancers = static_cast<std::size_t>(
      static_cast<double>(shard_servers) * load + 0.5);
  shard_balancers += shard_balancers % 2;
  if (shard_balancers < 2) shard_balancers = 2;
  cfg.num_servers = shard_servers * shards;
  cfg.num_balancers = shard_balancers * shards;
  cfg.num_shards = shards;
  cfg.warmup_steps = warmup;
  cfg.measure_steps = measure;
  cfg.seed = g_seed;
  cfg.source = source;
  return cfg;
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

  // The scaled section's own flags (see the header).
  const ftl::util::Args args(argc, argv);
  g_shards = args.get("shards", g_shards);
  g_servers = args.get("servers", g_servers);

  ftl::bench::ObsSession obs_session("bench_fig4_load_balancing", obs_opts);
  obs_session.set_config("N=100 balancers, M swept 150..40 (load 0.67..2.5)");

  // The actual Figure 4 series, as a table.
  std::cout << "\nFigure 4 reproduction (N = " << kBalancers
            << " balancers, mean queue length per server):\n";
  ftl::util::Table table({"load N/M", "classical random", "quantum CHSH",
                          "omniscient bound"});
  for (std::size_t m : kServerSweep) {
    const LbConfig cfg = base_config(m);
    auto rand_s = make_strategy("random");
    auto quant_s = make_strategy("quantum-chsh");
    auto omni_s = make_strategy("omniscient");
    table.add_row({cfg.load(), ftl::lb::run_lb_sim(cfg, *rand_s).mean_queue_length,
                   ftl::lb::run_lb_sim(cfg, *quant_s).mean_queue_length,
                   ftl::lb::run_lb_sim(cfg, *omni_s).mean_queue_length});
  }
  table.print(std::cout);

  // Consistency check from the paper: "the results depend primarily on the
  // ratio N/M and remain largely consistent as N varies."
  std::cout << "\nN-independence check (load fixed at ~1.47, quantum):\n";
  ftl::util::Table nt({"N", "M", "avg queue len (quantum)"});
  for (std::size_t n : {40u, 100u, 200u}) {
    LbConfig cfg = base_config(0);
    cfg.num_balancers = n;
    cfg.num_servers = (n * 2 + 1) / 3;  // load ~1.5
    auto strat = make_strategy("quantum-chsh");
    nt.add_row({static_cast<long long>(n),
                static_cast<long long>(cfg.num_servers),
                ftl::lb::run_lb_sim(cfg, *strat).mean_queue_length});
  }
  nt.print(std::cout);

  // Scaled sharded Fig-4: the same physics at 10^4-10^6 servers. The 10^4
  // run sits in the quantum-advantage region (load 1.4); the two --servers
  // runs (default 1e5; pass 1000000 for the full-size sweep) probe raw
  // engine throughput just under the knee.
  std::cout << "\nScaled sharded Fig-4 (seed " << g_seed << "):\n";
  struct ScaledRun {
    std::size_t servers;
    double load;
    long warmup;
    long measure;
    const char* source;
  };
  const ScaledRun runs[] = {
      {10000, 1.4, 300, 1500, "quantum-chsh"},
      {g_servers, 0.95, 100, 400, "classical random"},
      {g_servers, 0.95, 100, 400, "quantum-chsh"},
  };
  ftl::util::Table st({"servers", "balancers", "shards", "load N/M", "source",
                       "avg queue len", "requests/s"});
  for (const ScaledRun& run : runs) {
    const std::string source =
        std::strcmp(run.source, "classical random") == 0 ? "random"
                                                         : run.source;
    const std::size_t shards = resolve_shards(run.servers);
    const ShardedLbConfig cfg = scaled_config(
        run.servers, run.load, shards, run.warmup, run.measure, source);
    const auto t0 = std::chrono::steady_clock::now();
    const ShardedLbResult r = ftl::lb::run_sharded_lb_sim(cfg, &shared_pool());
    const double dt =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    st.add_row({static_cast<long long>(cfg.num_servers),
                static_cast<long long>(cfg.num_balancers),
                static_cast<long long>(shards), cfg.load(), run.source,
                r.mean_queue_length,
                static_cast<double>(r.counters.arrived) / dt});
  }
  st.print(std::cout);
  return 0;
}
