// Figures 1-2 made quantitative: the timing advantage of pre-shared qubits
// and the entanglement-provisioning question.
//   - decision latency: classical coordination costs an inter-server RTT
//     that grows with distance; a stored qubit costs none; even without
//     storage, waiting for the next pair is distance-independent.
//   - supply: fraction of requests finding a live pair vs source rate
//     (paper cites SPDC rates of 1e4..1e7 pairs/s).
#include <iostream>

#include "bench_common.hpp"
#include "core/coordinator.hpp"
#include "qnet/config.hpp"
#include "qnet/timing.hpp"
#include "util/table.hpp"

namespace {

using namespace ftl;

std::uint64_t g_seed = 55;  // supply-simulation streams; override with --seed

}  // namespace

// Shared obs flags (see bench_common.hpp): --seed, --metrics-out,
// --metrics-every, --prom-out, --trace-out, and --profile-out /
// --profile-hz (in-process sampling CPU profile;
// folded output pipes straight into flamegraph.pl).
int main(int argc, char** argv) {
  const ftl::bench::Options obs_opts =
      ftl::bench::parse_args(argc, argv, g_seed);
  g_seed = obs_opts.seed;
  const ftl::bench::ObsSession obs_session("bench_qnet_timing", obs_opts);

  std::cout << "\nDecision latency: classical RTT coordination vs pre-shared "
               "entanglement (Figure 2):\n";
  util::Table t({"inter-server distance", "classical RTT (us)",
                 "quantum stored (us)", "quantum no-storage wait (us)"});
  for (double d_m : {10.0, 100.0, 1000.0, 100000.0, 1.0e6}) {
    qnet::TimingModel m;
    m.inter_server_distance_m = d_m;
    t.add_row({std::to_string(static_cast<long long>(d_m)) + " m",
               qnet::classical_coordination_latency_s(m) * 1e6,
               qnet::quantum_decision_latency_s(m) * 1e6,
               qnet::quantum_no_storage_latency_s(m, 1e5) * 1e6});
  }
  t.print(std::cout);

  std::cout << "\nProvisioning: pair-rate sweep at 1e4 requests/s "
               "(SPDC sources span 1e4..1e7 pairs/s per §3):\n";
  util::Table pt({"pair rate (hz)", "hit fraction", "mean pair age (us)",
                  "effective chsh win", "worthwhile"});
  for (double rate : {1e3, 1e4, 1e5, 1e6, 1e7}) {
    qnet::QnetConfig cfg;
    cfg.pair_rate_hz = rate;
    const auto report =
        core::Coordinator::provision(cfg, 0.98, 1e4, 0.5, g_seed + 36);
    pt.add_row({rate, report.pair_hit_fraction,
                report.mean_pair_age_s * 1e6,
                report.effective_win_probability,
                std::string(report.quantum_worthwhile() ? "yes" : "no")});
  }
  pt.print(std::cout);
  return 0;
}
