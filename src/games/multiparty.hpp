// Multiparty XOR games: the Mermin–GHZ parity game family.
//
// §2 and §4.1 note that XOR games extend to more than two players with a
// *larger* quantum advantage. The canonical example is the Mermin game: n
// players receive bits x_1..x_n promised to have even sum; they must output
// bits whose XOR equals (sum x_i / 2) mod 2. Classically the best win
// probability is 1/2 + 2^{-ceil(n/2)}; sharing a GHZ state and measuring
// X (input 0) or Y (input 1) wins with probability 1.
#pragma once

#include <cstddef>
#include <vector>

#include "qcore/state.hpp"
#include "util/rng.hpp"

namespace ftl::games {

class GhzParityGame {
 public:
  explicit GhzParityGame(std::size_t num_parties);

  /// All valid (even-parity) input bitstrings, uniformly distributed.
  [[nodiscard]] const std::vector<std::vector<int>>& inputs() const {
    return inputs_;
  }

  /// The target parity for an input: (sum x_i / 2) mod 2.
  [[nodiscard]] int target_parity(const std::vector<int>& input) const;

  [[nodiscard]] bool wins(const std::vector<int>& input,
                          const std::vector<int>& output) const;

  /// Exact classical value by exhaustive search over all deterministic
  /// single-party strategies (each party maps its bit to an output bit).
  [[nodiscard]] double classical_value() const;

  /// Exact win probability of the GHZ + X/Y strategy via the Born rule
  /// (should be 1 for every n).
  [[nodiscard]] double quantum_value_exact() const;

  /// Samples the GHZ strategy's outputs for one input.
  [[nodiscard]] std::vector<int> play_quantum(const std::vector<int>& input,
                                              util::Rng& rng) const;

 private:
  std::size_t n_;
  std::vector<std::vector<int>> inputs_;
};

}  // namespace ftl::games
