#include "games/magic_square.hpp"

#include <cmath>

#include "qcore/gates.hpp"

namespace ftl::games {

namespace {

using qcore::CMat;
using qcore::Cx;

/// The 2-qubit cell operators of the magic square (acting on one party's
/// local pair of qubits).
CMat local_cell(std::size_t r, std::size_t c) {
  using namespace qcore::gates;
  switch (r * 3 + c) {
    case 0: return I().kron(Z());
    case 1: return Z().kron(I());
    case 2: return Z().kron(Z());
    case 3: return X().kron(I());
    case 4: return I().kron(X());
    case 5: return X().kron(X());
    case 6: return X().kron(Z()) * Cx{-1.0, 0.0};
    case 7: return Z().kron(X()) * Cx{-1.0, 0.0};
    default: return Y().kron(Y());
  }
}

/// Decodes an output symbol (0..3) into a +-1 triple with the required
/// parity: entries 0 and 1 are the free bits, entry 2 closes the product.
std::array<int, 3> decode(std::size_t symbol, int required_product) {
  const int e0 = (symbol & 1) != 0 ? -1 : 1;
  const int e1 = (symbol & 2) != 0 ? -1 : 1;
  return {e0, e1, required_product * e0 * e1};
}

/// The game as a TwoPartyGame: inputs are row/column indices (3 each);
/// outputs encode the two free entries of a valid triple (4 each; the
/// third entry is fixed by the parity constraint).
TwoPartyGame as_two_party_game() {
  std::vector wins(3, std::vector(3, std::vector(4, std::vector<bool>(4))));
  for (std::size_t r = 0; r < 3; ++r) {
    for (std::size_t c = 0; c < 3; ++c) {
      for (std::size_t a = 0; a < 4; ++a) {
        for (std::size_t b = 0; b < 4; ++b) {
          const auto row = decode(a, +1);
          const auto col = decode(b, -1);
          wins[r][c][a][b] = row[c] == col[r];
        }
      }
    }
  }
  return TwoPartyGame(std::move(wins), TwoPartyGame::uniform_inputs(3, 3));
}

}  // namespace

MagicSquareGame::MagicSquareGame() {
  const CMat id4 = CMat::identity(4);
  for (std::size_t r = 0; r < 3; ++r) {
    for (std::size_t c = 0; c < 3; ++c) {
      const CMat cell = local_cell(r, c);
      obs_[r][c][0] = cell.kron(id4);  // Alice: qubits 0,1 (high bits)
      obs_[r][c][1] = id4.kron(cell);  // Bob: qubits 2,3 (low bits)
    }
  }
}

const qcore::CMat& MagicSquareGame::observable(std::size_t r, std::size_t c,
                                               int party) const {
  FTL_ASSERT(r < 3 && c < 3 && (party == 0 || party == 1));
  return obs_[r][c][static_cast<std::size_t>(party)];
}

qcore::StateVec MagicSquareGame::shared_state() {
  // |Phi+>_{02} (x) |Phi+>_{13}: qubits 0,1 Alice; 2,3 Bob; pair (0,2) and
  // pair (1,3). Amplitude 1/2 on |a b a b>.
  std::vector<Cx> amps(16, Cx{0, 0});
  for (std::size_t a = 0; a < 2; ++a) {
    for (std::size_t b = 0; b < 2; ++b) {
      amps[(a << 3) | (b << 2) | (a << 1) | b] = Cx{0.5, 0.0};
    }
  }
  return qcore::StateVec::from_amplitudes(std::move(amps));
}

double MagicSquareGame::classical_value() const {
  return games::classical_value(as_two_party_game()).value;
}

MagicSquareGame::RoundResult MagicSquareGame::play_quantum(
    std::size_t row, std::size_t col, util::Rng& rng) const {
  FTL_ASSERT(row < 3 && col < 3);
  qcore::Density rho = qcore::Density::from_state(shared_state());
  RoundResult out{};
  // Alice measures her row's three commuting observables, Bob his
  // column's; all six commute pairwise across parties (disjoint qubits),
  // so sequential measurement is exact.
  for (std::size_t c = 0; c < 3; ++c) {
    out.row_entries[c] = rho.measure_observable(obs_[row][c][0], rng);
  }
  for (std::size_t r = 0; r < 3; ++r) {
    out.col_entries[r] = rho.measure_observable(obs_[r][col][1], rng);
  }
  return out;
}

bool MagicSquareGame::wins(std::size_t row, std::size_t col,
                           const RoundResult& r) const {
  FTL_ASSERT(row < 3 && col < 3);
  const int row_prod =
      r.row_entries[0] * r.row_entries[1] * r.row_entries[2];
  const int col_prod =
      r.col_entries[0] * r.col_entries[1] * r.col_entries[2];
  if (row_prod != +1 || col_prod != -1) return false;
  return r.row_entries[col] == r.col_entries[row];
}

}  // namespace ftl::games
