// §4.1 footnote 2: "The observed advantage is robust to other server
// execution strategies." We re-run the Figure-4 comparison under all three
// service policies and report the quantum/classical queue-length ratio at
// loads around the knee. Expected: ratio < 1 everywhere.
#include <algorithm>
#include <iostream>
#include <memory>

#include "bench_common.hpp"
#include "correlate/decision_source.hpp"
#include "lb/simulator.hpp"
#include "util/table.hpp"

namespace {

using namespace ftl;

std::uint64_t g_seed = 99;  // override with --seed

lb::LbResult run_once(std::size_t servers, lb::ServicePolicy policy,
                      bool quantum) {
  lb::LbConfig cfg;
  cfg.num_balancers = 100;
  cfg.num_servers = servers;
  cfg.policy = policy;
  cfg.warmup_steps = 800;
  cfg.measure_steps = 3000;
  cfg.seed = g_seed;
  if (quantum) {
    lb::PairedStrategy strat(std::make_unique<correlate::ChshSource>(1.0));
    return run_lb_sim(cfg, strat);
  }
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
  const ftl::bench::ObsSession obs_session("bench_fig4_service_policies", obs_opts);

  std::cout << "\nFootnote-2 robustness: quantum vs classical mean queue "
               "length under each service policy:\n";
  util::Table t({"policy", "load", "classical", "quantum", "quantum/classical"});
  for (auto policy : {lb::ServicePolicy::kPaperCFirst,
                      lb::ServicePolicy::kFifoPair,
                      lb::ServicePolicy::kEFirst}) {
    for (std::size_t servers : {100u, 86u, 76u}) {
      const auto rq = run_once(servers, policy, true);
      const auto rc = run_once(servers, policy, false);
      t.add_row({std::string(lb::to_string(policy)),
                 100.0 / static_cast<double>(servers), rc.mean_queue_length,
                 rq.mean_queue_length,
                 rq.mean_queue_length / std::max(rc.mean_queue_length, 1e-9)});
    }
  }
  t.print(std::cout);
  return 0;
}
