// The CHSH game (§2) and the output-flipped variant the load balancers play
// (§4.1: a XOR b = NOT(x AND y), so that two type-C tasks co-locate).
#pragma once

#include "games/game.hpp"
#include "games/strategy.hpp"

namespace ftl::games {

/// Measurement angles; player with input i measures in the real basis
/// cos(theta)|0> + sin(theta)|1> (paper's parameterisation).
struct ChshAngles {
  double alice0;
  double alice1;
  double bob0;
  double bob1;
};

/// The Tsirelson-optimal angles from §2: Alice {0, pi/4}, Bob {pi/8, -pi/8}.
[[nodiscard]] ChshAngles chsh_optimal_angles();

/// CHSH as a TwoPartyGame with uniform inputs. If `flipped`, the win
/// condition is a XOR b = NOT(x AND y) — the load-balancing variant.
[[nodiscard]] TwoPartyGame chsh_game(bool flipped = false);

/// Quantum strategy: Werner state with the given visibility (1.0 = ideal
/// Bell pair) measured at the given angles. If `flip_bob_output`, Bob's
/// outcome labels are swapped, which converts the standard optimal strategy
/// into one for the flipped game.
[[nodiscard]] QuantumStrategy chsh_quantum_strategy(
    const ChshAngles& angles, bool flip_bob_output = false,
    double visibility = 1.0);

/// Same measurement bases, but on an arbitrary (e.g. storage-decohered)
/// two-qubit state.
[[nodiscard]] QuantumStrategy chsh_strategy_with_state(
    qcore::Density state, const ChshAngles& angles,
    bool flip_bob_output = false);

/// Closed-form win probability of the angle strategy on a visibility-v
/// Werner state: per input pair, P(a = b) = (1 + v cos 2(ta - tb)) / 2.
/// Used to validate the simulator.
[[nodiscard]] double chsh_win_probability(const ChshAngles& angles,
                                          bool flipped, double visibility);

/// Best classical win probability (3/4) with witnessing strategies.
[[nodiscard]] ClassicalOptimum chsh_classical_optimum(bool flipped = false);

}  // namespace ftl::games
