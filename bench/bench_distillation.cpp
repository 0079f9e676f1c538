// Distillation economics: §3 notes SPDC sources have finite fidelity and
// that designs must absorb the error margin. This bench answers: given a
// source below the CHSH-usefulness threshold (F ~ 0.78), how many raw
// pairs does BBPSSW burn to mint a useful one, and what does that do to
// the effective pair rate the Figure-2 architecture can sustain?
#include <cmath>
#include <iostream>

#include "bench_common.hpp"
#include "qcore/density.hpp"
#include "qnet/distill.hpp"
#include "util/table.hpp"

using namespace ftl;

// Shared obs flags (see bench_common.hpp): --seed, --metrics-out,
// --metrics-every, --prom-out, --trace-out, and --profile-out /
// --profile-hz (in-process sampling CPU profile;
// folded output pipes straight into flamegraph.pl).
int main(int argc, char** argv) {
  // This bench is fully deterministic; --seed is accepted for a uniform CLI.
  const ftl::bench::ObsSession obs_session(
      "bench_distillation", ftl::bench::parse_args(argc, argv, 0));

  const double chsh_threshold = (1.0 + 3.0 / std::sqrt(2.0)) / 4.0;
  std::cout << "\nBBPSSW recurrence to the CHSH-usefulness threshold (F > "
            << chsh_threshold << "):\n";
  util::Table t({"source fidelity", "rounds", "final fidelity",
                 "raw pairs per useful pair",
                 "1e6 pairs/s source -> useful pairs/s"});
  for (double f0 : {0.55, 0.60, 0.65, 0.70, 0.75, 0.80}) {
    const auto r = qnet::distill_to_target(f0, chsh_threshold);
    t.add_row({f0, static_cast<long long>(r.rounds), r.fidelity,
               r.expected_raw_pairs,
               r.reached_target ? 1.0e6 / r.expected_raw_pairs : 0.0});
  }
  t.print(std::cout);

  std::cout << "\nPer-round trajectory from F = 0.65 (physical 4-qubit "
               "simulation each round, Werner re-twirl assumed):\n";
  util::Table traj({"round", "fidelity", "success prob",
                    "cumulative raw pairs"});
  double f = 0.65;
  double raw = 1.0;
  traj.add_row({static_cast<long long>(0), f, 1.0, raw});
  for (int round = 1; round <= 4; ++round) {
    const auto w = qcore::Density::werner((4.0 * f - 1.0) / 3.0);
    const auto r = qnet::bbpssw_round(w, w);
    raw *= 2.0 / r.success_probability;
    f = r.fidelity;
    traj.add_row({static_cast<long long>(round), f, r.success_probability,
                  raw});
  }
  traj.print(std::cout);
  return 0;
}
