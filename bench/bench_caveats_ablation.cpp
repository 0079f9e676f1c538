// §4.1 "Caveats": classical and hybrid alternatives to the quantum scheme.
//
//  (a) Dedicated servers: a fixed fraction of servers takes only type-C
//      tasks. Works when the split matches the workload, but §4.1 notes it
//      breaks down with multiple C subtypes — modelled here by requiring
//      pairing within a subtype (mixed subtypes do not share a slot).
//  (b) Local batching: with several requests per balancer per RTT, a
//      balancer can co-locate its own C tasks without any coordination.
//  (c) Classical mixtures: the best trade-off any shared-randomness scheme
//      can make between co-locating C-C and separating the rest.
#include <iostream>
#include <memory>

#include "bench_common.hpp"
#include "correlate/decision_source.hpp"
#include "lb/simulator.hpp"
#include "util/table.hpp"

namespace {

using namespace ftl;

std::uint64_t g_seed = 4242;  // override with --seed

lb::LbConfig base_cfg(std::size_t servers) {
  lb::LbConfig cfg;
  cfg.num_balancers = 100;
  cfg.num_servers = servers;
  cfg.warmup_steps = 800;
  cfg.measure_steps = 3000;
  cfg.seed = g_seed;
  return cfg;
}

double run_queue(lb::LbStrategy& s, std::size_t servers,
                 std::size_t batch = 1) {
  lb::LbConfig cfg = base_cfg(servers);
  cfg.batch_size = batch;
  return run_lb_sim(cfg, s).mean_queue_length;
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
  const ftl::bench::ObsSession obs_session("bench_caveats_ablation", obs_opts);

  const std::size_t servers = 86;  // load ~1.16, the knee region

  std::cout << "\nCaveats ablation at load " << 100.0 / servers
            << " (mean queue length; lower is better):\n";
  util::Table t({"strategy", "avg_queue_len"});
  {
    lb::RandomStrategy s;
    t.add_row({std::string("classical random"), run_queue(s, servers)});
  }
  {
    lb::RoundRobinStrategy s;
    t.add_row({std::string("round robin"), run_queue(s, servers)});
  }
  {
    lb::PowerOfTwoStrategy s;
    t.add_row({std::string("power-of-two (needs queue info)"),
               run_queue(s, servers)});
  }
  for (double f : {0.3, 0.4, 0.5, 0.6}) {
    lb::DedicatedServersStrategy s(f);
    t.add_row({"dedicated servers f=" + std::to_string(f).substr(0, 3),
               run_queue(s, servers)});
  }
  for (double p : {0.0, 0.25, 0.5}) {
    lb::PairedStrategy s(std::make_unique<correlate::MixedClassicalSource>(p));
    t.add_row({"classical mixture p_same=" + std::to_string(p).substr(0, 4),
               run_queue(s, servers)});
  }
  {
    lb::PairedStrategy s(std::make_unique<correlate::ChshSource>(1.0));
    t.add_row({std::string("quantum CHSH"), run_queue(s, servers)});
  }
  {
    lb::PairedStrategy s(std::make_unique<correlate::OmniscientOracleSource>());
    t.add_row({std::string("omniscient (testbed cheat)"),
               run_queue(s, servers)});
  }
  t.print(std::cout);

  std::cout << "\nLocal batching (multiple requests per RTT shrink the "
               "quantum edge, as the caveat predicts):\n";
  util::Table bt({"batch size", "local batching", "quantum paired (batch 1 "
                  "equivalent load)"});
  for (std::size_t batch : {1u, 2u, 4u, 8u}) {
    lb::LocalBatchingStrategy local;
    lb::PairedStrategy quantum(std::make_unique<correlate::ChshSource>(1.0));
    bt.add_row({static_cast<long long>(batch),
                run_queue(local, servers * batch, batch),
                run_queue(quantum, servers)});
  }
  bt.print(std::cout);
  return 0;
}
