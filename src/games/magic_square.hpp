// The Mermin-Peres magic square game — pseudo-telepathy (§2's ref [11]).
//
// A 3x3 grid must be filled with +-1 entries; Alice receives a row index
// and answers three entries whose product is +1, Bob receives a column
// index and answers three entries whose product is -1. They win if they
// agree on the shared cell. No classical strategy wins more than 8/9 of
// the time (the grid constraints are jointly unsatisfiable), but two
// shared Bell pairs win with certainty: each party measures the three
// *commuting* Pauli-product observables of its row/column:
//
//        I(x)Z    Z(x)I    Z(x)Z        rows multiply to +I
//        X(x)I    I(x)X    X(x)X        columns multiply to -I
//       -X(x)Z   -Z(x)X    Y(x)Y
//
// This is the strongest form of "coordination without communication" the
// paper's program could package: a constraint satisfied with certainty,
// not merely with elevated probability.
#pragma once

#include <array>

#include "games/game.hpp"
#include "qcore/density.hpp"
#include "util/rng.hpp"

namespace ftl::games {

class MagicSquareGame {
 public:
  MagicSquareGame();

  /// Exact classical value by exhaustive search (= 8/9).
  [[nodiscard]] double classical_value() const;

  struct RoundResult {
    std::array<int, 3> row_entries;  // Alice's +-1 entries for her row
    std::array<int, 3> col_entries;  // Bob's +-1 entries for his column
  };

  /// Plays one quantum round on two shared Bell pairs (exact simulation:
  /// sequential measurement of the commuting observables).
  [[nodiscard]] RoundResult play_quantum(std::size_t row, std::size_t col,
                                         util::Rng& rng) const;

  /// Win predicate: valid parities and agreement on the shared cell.
  [[nodiscard]] bool wins(std::size_t row, std::size_t col,
                          const RoundResult& r) const;

  /// The cell (r, c) observable acting on the full 4-qubit space for the
  /// given party (0 = Alice on qubits {0,1}, 1 = Bob on qubits {2,3}).
  [[nodiscard]] const qcore::CMat& observable(std::size_t r, std::size_t c,
                                              int party) const;

  /// The shared state: |Phi+>_{02} (x) |Phi+>_{13}.
  [[nodiscard]] static qcore::StateVec shared_state();

 private:
  // [r][c][party]
  std::array<std::array<std::array<qcore::CMat, 2>, 3>, 3> obs_;
};

}  // namespace ftl::games
