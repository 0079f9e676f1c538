// Validation bench: the simulator against parameter-free theory.
//
// Not a figure from the paper — this is the evidence that the simulator
// the figures rest on is *correct*: exact discrete-time queueing formulas,
// Little's law, and the stability-bound bracket around the Figure-4 knee.
#include <iostream>

#include "bench_common.hpp"
#include "lb/analysis.hpp"
#include "lb/simulator.hpp"
#include "util/table.hpp"

namespace {

using namespace ftl;

std::uint64_t g_seed = 12;  // override with --seed

lb::LbResult run_pure_e(std::size_t n, std::size_t m) {
  lb::LbConfig cfg;
  cfg.num_balancers = n;
  cfg.num_servers = m;
  cfg.p_colocate = 0.0;
  cfg.warmup_steps = 3000;
  cfg.measure_steps = 30000;
  cfg.seed = g_seed;
  lb::RandomStrategy strat;
  return run_lb_sim(cfg, strat);
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
  const ftl::bench::ObsSession obs_session("bench_theory_validation", obs_opts);

  std::cout << "\nSimulator vs exact discrete-time queueing theory "
               "(pure type-E workload, random assignment):\n";
  util::Table t({"load", "sim mean queue", "theory mean queue",
                 "sim mean delay", "Little's law Q/lambda"});
  for (std::size_t n : {24u, 40u, 56u, 72u}) {
    const std::size_t m = 80;
    const auto r = run_pure_e(n, m);
    const double load = static_cast<double>(n) / static_cast<double>(m);
    const double theory = lb::unit_service_mean_queue(
        lb::ArrivalMoments::from_binomial(n, 1.0 / static_cast<double>(m)));
    t.add_row({load, r.mean_queue_length, theory, r.mean_delay,
               r.mean_queue_length / load});
  }
  t.print(std::cout);

  const auto bounds = lb::paper_policy_stability_bounds(0.5);
  std::cout << "\nStability bounds for the Figure-4 workload (pC = 0.5): "
               "knee must lie in (" << bounds.lower << ", " << bounds.upper
            << ") — the measured classical knee at load ~1.1-1.2 does.\n";
  return 0;
}
