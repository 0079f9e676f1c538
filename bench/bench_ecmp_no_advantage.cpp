// §4.2: ECMP routing. Reproduces the section's proof and settles its
// conjecture for switches without inputs:
//   1. The no-signaling reduction — an inactive party's measurement choice
//      cannot influence the active pair's joint distribution, so N-way
//      entanglement collapses to a pairwise mixture (measured deviation ~ 0).
//   2. No quantum advantage — a switch gets no input, so an entangled
//      strategy is one joint distribution over path assignments, and none
//      beats the balanced partition (THEORY §8, "Input-free switches").
//      The table prints that exact optimum beside sampled strategies; the
//      shared partition, pre-paired singlets and GHZ measured at
//      alternating angles 0, pi/2 attain it.
#include <algorithm>
#include <cmath>
#include <iostream>
#include <vector>

#include "bench_common.hpp"
#include "ecmp/no_signaling.hpp"
#include "ecmp/simulator.hpp"
#include "ecmp/strategies.hpp"
#include "qcore/gates.hpp"
#include "util/table.hpp"

namespace {

using namespace ftl;

std::uint64_t g_seed = 7;  // EcmpConfig default; override with --seed

/// Largest change the inactive switch (GHZ(n)'s last qubit) makes to the
/// active pair's joint outcome distribution, over 16 measurement bases
/// spaced pi/16 apart.
double max_no_signaling_deviation(std::size_t n) {
  const auto rho = qcore::Density::from_state(qcore::StateVec::ghz(n));
  double max_dev = 0.0;
  double tc = 0.0;
  for (int k = 0; k < 16; ++k, tc += M_PI / 16.0) {
    max_dev = std::max(
        max_dev, ecmp::no_signaling_deviation(
                     rho, 0, qcore::gates::real_basis(0.4), 1,
                     qcore::gates::real_basis(1.1), n - 1,
                     qcore::gates::real_basis(tc)));
  }
  return max_dev;
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
  const ftl::bench::ObsSession obs_session("bench_ecmp_no_advantage", obs_opts);

  std::cout << "\nECMP collision probabilities (M = 2 paths, 2 active "
               "switches drawn uniformly):\n";
  util::Table t({"N", "independent random", "shared partition (classical opt)",
                 "paired singlets", "GHZ at 0, pi/2 (sampled)",
                 "optimum, any strategy (exact)"});
  for (std::size_t n : {3u, 4u}) {
    ecmp::EcmpConfig cfg;
    cfg.active = 2;
    cfg.rounds = 100000;
    cfg.seed = g_seed;
    ecmp::IndependentUniform s_ind(n, 2);
    ecmp::PairedSinglets s_singlet(n);
    ecmp::SharedPartition s_part(n, 2);
    std::vector<qcore::CMat> alternating;
    for (std::size_t k = 0; k < n; ++k) {
      alternating.push_back(qcore::gates::real_basis(k % 2 ? M_PI / 2.0 : 0.0));
    }
    ecmp::LocalMeasurements s_ghz("ghz", qcore::StateVec::ghz(n), alternating);
    t.add_row({static_cast<long long>(n),
               run_ecmp_sim(cfg, s_ind).mean_collisions,
               run_ecmp_sim(cfg, s_part).mean_collisions,
               run_ecmp_sim(cfg, s_singlet).mean_collisions,
               run_ecmp_sim(cfg, s_ghz).mean_collisions,
               ecmp::SharedPartition::pair_collision_probability(n, 2)});
  }
  t.print(std::cout);
  std::cout << "\nNo-signaling deviation (max over 16 bases of the inactive "
               "switch):\n";
  for (std::size_t n : {3u, 4u}) {
    std::cout << "  GHZ(" << n << "): " << max_no_signaling_deviation(n)
              << "\n";
  }
  std::cout << "\nReading: no sampled column falls below the exact optimum "
               "beyond sampling noise, and no input-free strategy can "
               "(THEORY §8, so the paper's conjecture holds here); the "
               "no-signaling deviation above is numerically zero (the "
               "paper's proof).\n";

  // The reduction, shown constructively for the report.
  const auto rho = qcore::Density::from_state(qcore::StateVec::ghz(3));
  const auto ensemble =
      ecmp::reduce_by_measuring(rho, 2, qcore::gates::real_basis(0.3));
  std::cout << "\nConstructive reduction: GHZ(3) with C measured first "
               "becomes a mixture of "
            << ensemble.size() << " pairwise states (probs";
  for (const auto& [p, st] : ensemble) {
    (void)st;
    std::cout << " " << p;
  }
  std::cout << ").\n";
  return 0;
}
