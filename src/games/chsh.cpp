#include "games/chsh.hpp"

#include <cmath>

#include "qcore/gates.hpp"

namespace ftl::games {

ChshAngles chsh_optimal_angles() {
  return ChshAngles{0.0, M_PI / 4.0, M_PI / 8.0, -M_PI / 8.0};
}

TwoPartyGame chsh_game(bool flipped) {
  std::vector<std::vector<std::vector<std::vector<bool>>>> wins(
      2, std::vector<std::vector<std::vector<bool>>>(
             2, std::vector<std::vector<bool>>(2, std::vector<bool>(2))));
  for (std::size_t x = 0; x < 2; ++x) {
    for (std::size_t y = 0; y < 2; ++y) {
      for (std::size_t a = 0; a < 2; ++a) {
        for (std::size_t b = 0; b < 2; ++b) {
          bool target = (x == 1 && y == 1);
          if (flipped) target = !target;
          wins[x][y][a][b] = ((a ^ b) == 1) == target;
        }
      }
    }
  }
  return TwoPartyGame(std::move(wins), TwoPartyGame::uniform_inputs(2, 2));
}

QuantumStrategy chsh_quantum_strategy(const ChshAngles& angles,
                                      bool flip_bob_output,
                                      double visibility) {
  return chsh_strategy_with_state(qcore::Density::werner(visibility), angles,
                                  flip_bob_output);
}

namespace {

/// The measurement basis a single player uses: player 0 (Alice) or 1 (Bob),
/// given its input bit. `flip_output` swaps the outcome labels (used for
/// Bob in the flipped load-balancing game).
qcore::CMat chsh_basis(const ChshAngles& angles, int player, int input,
                       bool flip_output) {
  FTL_ASSERT((player == 0 || player == 1) && (input == 0 || input == 1));
  const double theta = player == 0 ? (input == 0 ? angles.alice0 : angles.alice1)
                                   : (input == 0 ? angles.bob0 : angles.bob1);
  qcore::CMat b = qcore::gates::real_basis(theta);
  if (!flip_output) return b;
  // Swapping outcome labels = swapping the basis columns.
  qcore::CMat swapped(2, 2);
  swapped.at(0, 0) = b.at(0, 1);
  swapped.at(1, 0) = b.at(1, 1);
  swapped.at(0, 1) = b.at(0, 0);
  swapped.at(1, 1) = b.at(1, 0);
  return swapped;
}

}  // namespace

QuantumStrategy chsh_strategy_with_state(qcore::Density state,
                                         const ChshAngles& angles,
                                         bool flip_bob_output) {
  using qcore::CMat;
  std::vector<CMat> alice = {chsh_basis(angles, 0, 0, false),
                             chsh_basis(angles, 0, 1, false)};
  std::vector<CMat> bob = {chsh_basis(angles, 1, 0, flip_bob_output),
                           chsh_basis(angles, 1, 1, flip_bob_output)};
  return QuantumStrategy(std::move(state), std::move(alice), std::move(bob));
}

double chsh_win_probability(const ChshAngles& angles, bool flipped,
                            double visibility) {
  const double a[2] = {angles.alice0, angles.alice1};
  const double b[2] = {angles.bob0, angles.bob1};
  double win = 0.0;
  for (int x = 0; x < 2; ++x) {
    for (int y = 0; y < 2; ++y) {
      const double p_same =
          0.5 * (1.0 + visibility * std::cos(2.0 * (a[x] - b[y])));
      bool want_diff = (x == 1 && y == 1);
      if (flipped) want_diff = !want_diff;
      win += 0.25 * (want_diff ? 1.0 - p_same : p_same);
    }
  }
  return win;
}

ClassicalOptimum chsh_classical_optimum(bool flipped) {
  return classical_value(chsh_game(flipped));
}

}  // namespace ftl::games
