// End-to-end hardware budget study: the Figure-4 cluster experiment re-run
// with a *finite* entanglement source (qnet supply model rationing the
// pairs). This is the bench a deployment engineer would read: it says what
// SPDC pair rate a cluster at a given load needs before the quantum load
// balancer stops being a paper exercise.
#include <cmath>
#include <iostream>
#include <memory>

#include "bench_common.hpp"
#include "core/supply_source.hpp"
#include "lb/simulator.hpp"
#include "util/table.hpp"

namespace {

using namespace ftl;

std::uint64_t g_seed = 31;  // cluster + supply streams; override with --seed

lb::LbResult run_with_rate(double pair_rate_hz, std::size_t servers) {
  lb::LbConfig cfg;
  cfg.num_balancers = 100;
  cfg.num_servers = servers;
  cfg.warmup_steps = 600;
  cfg.measure_steps = 3000;
  cfg.seed = g_seed;

  core::PairConfig pc;
  pc.backend = core::Backend::kQuantum;
  pc.visibility = 1.0;
  qnet::QnetConfig supply;
  supply.pair_rate_hz = pair_rate_hz;
  supply.source_visibility = 0.99;
  pc.supply = supply;
  pc.round_rate_hz = 1e4;  // one CHSH round per pair of balancers per step
  pc.seed = g_seed + 17;  // decorrelated from the cluster stream

  lb::PairedStrategy strat(std::make_unique<core::SupplyAwareSource>(pc));
  return run_lb_sim(cfg, strat);
}

lb::LbResult run_reference(const std::string& kind, std::size_t servers) {
  lb::LbConfig cfg;
  cfg.num_balancers = 100;
  cfg.num_servers = servers;
  cfg.warmup_steps = 600;
  cfg.measure_steps = 3000;
  cfg.seed = g_seed;
  if (kind == "random") {
    lb::RandomStrategy s;
    return run_lb_sim(cfg, s);
  }
  if (kind == "classical") {
    lb::PairedStrategy s(std::make_unique<correlate::ClassicalChshSource>());
    return run_lb_sim(cfg, s);
  }
  lb::PairedStrategy s(std::make_unique<correlate::ChshSource>(1.0));
  return run_lb_sim(cfg, s);
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
  const ftl::bench::ObsSession obs_session("bench_supply_e2e", obs_opts);

  const std::size_t servers = 86;  // load ~1.16, the knee
  std::cout << "\nEnd-to-end queue length at load 1.16 vs entanglement "
               "source rate (10k decision rounds/s per balancer pair):\n";
  util::Table t({"pair rate (hz)", "avg queue len", "mean delay"});
  for (int e = 6; e <= 12; ++e) {
    const double rate = std::pow(10.0, e / 2.0);
    const auto r = run_with_rate(rate, servers);
    t.add_row({rate, r.mean_queue_length, r.mean_delay});
  }
  t.print(std::cout);

  std::cout << "\nReference points (same seed, same load):\n";
  util::Table ref({"strategy", "avg queue len"});
  ref.add_row({std::string("classical random"),
               run_reference("random", servers).mean_queue_length});
  ref.add_row({std::string("classical paired"),
               run_reference("classical", servers).mean_queue_length});
  ref.add_row({std::string("quantum ideal (infinite rate)"),
               run_reference("quantum", servers).mean_queue_length});
  ref.print(std::cout);
  std::cout << "\nReading: the supply-limited curve interpolates from the\n"
               "classical reference (starved source) to the ideal quantum\n"
               "reference (saturated source); the crossover sits where the\n"
               "pair rate matches the decision rate, squarely inside the\n"
               "1e4-1e7 pairs/s range SPDC hardware delivers (§3).\n";
  return 0;
}
