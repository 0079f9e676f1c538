// Quantum value of two-player XOR games via Tsirelson's theorem.
//
// Tsirelson showed that the optimal quantum bias of an XOR game equals the
// optimum of a semidefinite program: maximise sum_xy M_xy <u_x, v_y> over
// unit vectors u_x, v_y (dimension |X|+|Y| suffices), where
// M_xy = pi(x,y) * (-1)^{f(x,y)} encodes the input distribution and the
// win predicate. The paper computes these values with Toqito; this module
// is our from-scratch replacement.
//
// We solve the SDP in its Burer–Monteiro factorised form: a Gram problem
// max <C, R R^T> over matrices R with unit rows, optimised by exact block
// coordinate ascent on each row (each row update is the closed-form
// conditional optimum). With full rank (r = n) the factorisation is lossless
// and, with random restarts, the method reliably reaches the global optimum
// of these tiny SDPs; we validate against closed-form game values (CHSH
// bias = 1/sqrt(2), etc.) in the test suite.
#pragma once

#include <cstdint>
#include <vector>

#include "util/rng.hpp"

namespace ftl::sdp {

/// Dense real symmetric cost matrix for the Gram problem.
class SymMatrix {
 public:
  explicit SymMatrix(std::size_t n) : n_(n), a_(n * n, 0.0) {}

  [[nodiscard]] std::size_t size() const { return n_; }
  [[nodiscard]] double& at(std::size_t i, std::size_t j) { return a_[i * n_ + j]; }
  [[nodiscard]] double at(std::size_t i, std::size_t j) const {
    return a_[i * n_ + j];
  }

 private:
  std::size_t n_;
  std::vector<double> a_;
};

struct GramOptions {
  /// Factor rank; 0 means full rank n (lossless factorisation).
  std::size_t rank = 0;
  /// Independent random restarts; the best objective wins.
  int restarts = 8;
  /// Coordinate-ascent sweeps per restart.
  int max_sweeps = 500;
  /// Stop a restart when a full sweep improves the objective by less.
  double tol = 1e-10;
  std::uint64_t seed = 12345;
  /// Optional warm start: when `warm_rows.size() == n`, restart 0 begins
  /// from these rows (renormalised, padded/truncated to `rank`) instead of
  /// random ones; the remaining restarts stay random. Adjacent games in a
  /// Fig-3 sweep differ in a single predicate entry, so the previous
  /// game's Gram rows sit near the new optimum and converge in a handful
  /// of sweeps (counted by sdp.gram.warm_starts / sdp.gram.sweeps).
  std::vector<std::vector<double>> warm_rows;
};

struct GramResult {
  /// max sum_{i,j} C_ij <r_i, r_j> with unit rows r_i.
  double value = 0.0;
  /// The optimal unit row vectors (size n x rank).
  std::vector<std::vector<double>> rows;
  bool converged = false;
};

/// Maximises <C, X> over PSD X with unit diagonal (C symmetric; its diagonal
/// is ignored since X_ii = 1 contributes a constant, which is *not* included
/// in `value`).
[[nodiscard]] GramResult max_gram(const SymMatrix& c, const GramOptions& opts = {});

struct XorBiasResult {
  /// Optimal quantum bias: E[win] - E[lose] = 2*P(win) - 1.
  double bias = 0.0;
  /// Tsirelson vectors realising the bias.
  std::vector<std::vector<double>> alice;
  std::vector<std::vector<double>> bob;
  bool converged = false;
};

/// Quantum bias of the XOR game with cost matrix m[x][y] = pi(x,y) *
/// (-1)^{f(x,y)}. Win probability = (1 + bias) / 2.
[[nodiscard]] XorBiasResult xor_quantum_bias(
    const std::vector<std::vector<double>>& m, const GramOptions& opts = {});

}  // namespace ftl::sdp
