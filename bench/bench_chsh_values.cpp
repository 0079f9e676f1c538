// §2's headline numbers, reproduced from four independent code paths:
// classical CHSH value 0.75 (exhaustive search), quantum value
// cos^2(pi/8) ~ 0.8536 (closed form, density-matrix simulation, sampled
// play, and the Tsirelson SDP), plus the 1/3-2/3 skewed-basis example.
#include <cmath>
#include <iostream>

#include "bench_common.hpp"
#include "games/chsh.hpp"
#include "games/xor_game.hpp"
#include "qcore/gates.hpp"
#include "qcore/state.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

namespace {

using namespace ftl;

std::uint64_t g_seed = 7;  // sampled-play stream; override with --seed

/// Win fraction of the optimal quantum strategy over `rounds` CHSH rounds
/// with uniform inputs, played on the simulator from one seeded stream.
double sampled_quantum_value(int rounds) {
  util::Rng rng(g_seed);
  const auto strat = games::chsh_quantum_strategy(games::chsh_optimal_angles());
  const auto game = games::chsh_game();
  int wins = 0;
  for (int i = 0; i < rounds; ++i) {
    const std::size_t x = rng.uniform_int(2);
    const std::size_t y = rng.uniform_int(2);
    const auto [a, b] = strat.play(x, y, rng);
    if (game.wins(x, y, static_cast<std::size_t>(a),
                  static_cast<std::size_t>(b)))
      ++wins;
  }
  return static_cast<double>(wins) / rounds;
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
  const ftl::bench::ObsSession obs_session("bench_chsh_values", obs_opts);

  util::Table t({"quantity", "paper", "measured"});
  t.set_precision(6);
  t.add_row({std::string("CHSH classical value"), 0.75,
             games::chsh_classical_optimum().value});
  t.add_row({std::string("CHSH quantum value (exact sim)"),
             std::cos(M_PI / 8.0) * std::cos(M_PI / 8.0),
             games::chsh_quantum_strategy(games::chsh_optimal_angles())
                 .value(games::chsh_game())});
  t.add_row({std::string("CHSH quantum value (100k sampled rounds)"),
             std::cos(M_PI / 8.0) * std::cos(M_PI / 8.0),
             sampled_quantum_value(100000)});
  t.add_row({std::string("CHSH quantum value (SDP)"),
             std::cos(M_PI / 8.0) * std::cos(M_PI / 8.0),
             (1.0 + games::XorGame::chsh().quantum_bias().bias) / 2.0});
  t.add_row({std::string("flipped CHSH quantum value"),
             std::cos(M_PI / 8.0) * std::cos(M_PI / 8.0),
             games::chsh_quantum_strategy(games::chsh_optimal_angles(), true)
                 .value(games::chsh_game(true))});

  // §2's skewed-basis conditional: P(second reads 0 | first read 0) = 1/3.
  const double c = 1.0 / std::sqrt(3.0);
  const double s2 = std::sqrt(2.0) / std::sqrt(3.0);
  const qcore::CMat skew{{qcore::Cx{c, 0}, qcore::Cx{s2, 0}},
                         {qcore::Cx{s2, 0}, qcore::Cx{-c, 0}}};
  auto rho = qcore::Density::from_state(qcore::StateVec::bell_phi_plus());
  const auto [after0, p0] = rho.collapse(0, qcore::CMat::identity(2), 0);
  t.add_row({std::string("skewed-basis P(0 | first=0)"), 1.0 / 3.0,
             after0.outcome_probability(1, skew, 0)});
  (void)p0;

  std::cout << "\nSection 2 value reproduction:\n";
  t.print(std::cout);
  return 0;
}
