// Biased CHSH: how the quantum advantage depends on the input distribution.
//
// §2 cites biased non-local games [38]; for load balancing the bias is the
// workload mix — P(type C) is rarely exactly 1/2. With P(x=1) = P(y=1) = p
// (independent), the XOR-game machinery gives the exact classical
// (exhaustive) and quantum (Tsirelson SDP) values; the see-saw optimiser
// cross-checks the quantum number with an explicit strategy. The known
// theory says the advantage vanishes once the bias is extreme enough that
// a deterministic strategy already wins almost always — measured here.
#include <iostream>
#include <utility>
#include <vector>

#include "bench_common.hpp"
#include "games/npa.hpp"
#include "games/seesaw.hpp"
#include "games/xor_game.hpp"
#include "util/table.hpp"

namespace {

using namespace ftl;

std::uint64_t g_seed = 2024;  // see-saw restart stream; override with --seed

games::XorGame biased_chsh(double p) {
  // f(x, y) = x AND y; inputs independent Bernoulli(p).
  std::vector<std::vector<int>> f{{0, 0}, {0, 1}};
  std::vector<std::vector<double>> pi{
      {(1 - p) * (1 - p), (1 - p) * p},
      {p * (1 - p), p * p}};
  return games::XorGame(std::move(f), std::move(pi));
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
  const ftl::bench::ObsSession obs_session("bench_biased_chsh", obs_opts);

  std::cout << "\nBiased CHSH (P(type C) = p at both balancers):\n";
  util::Table t({"p", "classical", "quantum (SDP)", "quantum (see-saw)",
                 "quantum (NPA upper)", "advantage"});
  for (double p : {0.05, 0.10, 0.20, 0.30, 0.40, 0.50, 0.60, 0.70, 0.80,
                   0.90, 0.95}) {
    const games::XorGame game = biased_chsh(p);
    const double classical = game.classical_value();
    const double quantum = (1.0 + game.quantum_bias().bias) / 2.0;
    games::SeesawOptions opts;
    opts.restarts = 8;
    opts.seed = g_seed;
    const double seesaw =
        games::seesaw_optimize(game.to_two_party_game(), opts).value;
    const double npa =
        games::npa1_upper_bound(game.to_two_party_game()).upper_bound;
    t.add_row({p, classical, quantum, seesaw, npa, quantum - classical});
  }
  t.print(std::cout);
  std::cout << "\nReading: the advantage peaks at the balanced workload and\n"
               "shrinks toward the edges, where one deterministic answer is\n"
               "almost always right; the see-saw strategy realises the SDP\n"
               "value, the NPA relaxation upper-bounds it to the same digits,\n"
               "and together they *certify* the quantum value at every bias\n"
               "(one Bell pair suffices).\n";
  return 0;
}
