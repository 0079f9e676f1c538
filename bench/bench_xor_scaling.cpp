// Figure 3's caption claim: "The probability of achieving a quantum
// advantage increases with the number of vertices." Sweep the vertex count
// at fixed edge density and measure the advantage probability.
//
// The sweep runs on games::XorValueEngine, whose branch-and-bound classical
// values are bit-identical to the exhaustive search at a fraction of the
// node visits — which is what lets this bench extend the curve to 12
// vertices (the exhaustive path's 2^n leaf scan made 7 the practical
// ceiling).
#include <iostream>

#include "bench_common.hpp"
#include "games/affinity.hpp"
#include "games/value_engine.hpp"
#include "games/xor_game.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace {

using namespace ftl;

std::uint64_t g_seed = 500;  // per-point base seed; override with --seed

constexpr int kGraphsPerPoint = 40;

double advantage_probability(std::size_t vertices, double p_exclusive,
                             int graphs, std::uint64_t seed) {
  games::XorValueOptions opts;
  opts.sdp.restarts = 8;
  opts.sdp.seed = seed;
  games::XorValueEngine engine(opts);
  util::Rng rng(seed);
  int advantaged = 0;
  for (int g = 0; g < graphs; ++g) {
    const auto graph =
        games::AffinityGraph::random(vertices, p_exclusive, rng);
    if (engine.evaluate(games::XorGame::from_affinity(graph)).advantage) {
      ++advantaged;
    }
  }
  return static_cast<double>(advantaged) / graphs;
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
  const ftl::bench::ObsSession obs_session("bench_xor_scaling", obs_opts);

  std::cout << "\nAdvantage probability vs vertex count (p_exclusive = 0.5, "
            << kGraphsPerPoint << " graphs/point):\n";
  util::Table t({"vertices", "P(quantum advantage)", "ci95"});
  for (std::size_t v = 3; v <= 12; ++v) {
    const double p =
        advantage_probability(v, 0.5, kGraphsPerPoint, g_seed + v);
    t.add_row({static_cast<long long>(v), p,
               util::wilson_halfwidth(
                   static_cast<std::size_t>(
                       p * static_cast<double>(kGraphsPerPoint) + 0.5),
                   kGraphsPerPoint)});
  }
  t.print(std::cout);
  std::cout << "\nExpected: non-decreasing in the vertex count (paper, "
               "Figure 3 caption).\n";
  return 0;
}
