#include "games/npa.hpp"

#include <array>
#include <cmath>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "qcore/eigen.hpp"
#include "qcore/matrix.hpp"
#include "sdp/dense.hpp"
#include "util/assert.hpp"

namespace ftl::games {

namespace {

constexpr std::size_t kDim = 9;      // moment matrix size
constexpr std::size_t kParams = 16;  // free entries after identities

/// Positions (upper triangle) tied to each parameter. Derivation in the
/// header: monomials {1, A0, A1, B0, B1, A0B0, A0B1, A1B0, A1B1}, using
/// A^2 = B^2 = 1, [A_x, B_y] = 0 and Re<X> = Re<X^dagger>.
///   0..3   <A0>, <A1>, <B0>, <B1>
///   4..7   <A0B0>, <A0B1>, <A1B0>, <A1B1>
///   8, 9   Re<A0A1>, Re<B0B1>
///   10,11  Re<A0A1B0>, Re<A0A1B1>
///   12,13  Re<A0B0B1>, Re<A1B0B1>
///   14,15  Re<A0B0A1B1>, Re<A0B1A1B0>
const std::vector<std::vector<std::pair<int, int>>>& parameter_positions() {
  static const std::vector<std::vector<std::pair<int, int>>> kPos = {
      {{0, 1}, {3, 5}, {4, 6}},          // <A0>
      {{0, 2}, {3, 7}, {4, 8}},          // <A1>
      {{0, 3}, {1, 5}, {2, 7}},          // <B0>
      {{0, 4}, {1, 6}, {2, 8}},          // <B1>
      {{0, 5}, {1, 3}},                  // <A0B0>
      {{0, 6}, {1, 4}},                  // <A0B1>
      {{0, 7}, {2, 3}},                  // <A1B0>
      {{0, 8}, {2, 4}},                  // <A1B1>
      {{1, 2}, {5, 7}, {6, 8}},          // Re<A0A1>
      {{3, 4}, {5, 6}, {7, 8}},          // Re<B0B1>
      {{1, 7}, {2, 5}},                  // Re<A0A1B0>
      {{1, 8}, {2, 6}},                  // Re<A0A1B1>
      {{3, 6}, {4, 5}},                  // Re<A0B0B1>
      {{3, 8}, {4, 7}},                  // Re<A1B0B1>
      {{5, 8}},                          // Re<A0B0A1B1>
      {{6, 7}},                          // Re<A0B1A1B0>
  };
  return kPos;
}

/// Gamma(theta) = I + sum_k theta_k P_k with P_k symmetric 0/1 indicators.
qcore::CMat build_gamma(const std::array<double, kParams>& theta) {
  qcore::CMat g = qcore::CMat::identity(kDim);
  const auto& pos = parameter_positions();
  for (std::size_t k = 0; k < kParams; ++k) {
    for (const auto& [i, j] : pos[k]) {
      g.at(static_cast<std::size_t>(i), static_cast<std::size_t>(j)) =
          qcore::Cx{theta[k], 0.0};
      g.at(static_cast<std::size_t>(j), static_cast<std::size_t>(i)) =
          qcore::Cx{theta[k], 0.0};
    }
  }
  return g;
}

struct Objective {
  double constant = 0.0;
  std::array<double, kParams> coeff{};  // only 0..7 can be non-zero
};

/// Win probability = const + sum_k coeff_k * theta_k via
/// P(a,b|x,y) = (1 + (-1)^a E_Ax + (-1)^b E_By + (-1)^{a+b} E_AxBy) / 4.
Objective build_objective(const TwoPartyGame& game) {
  Objective obj;
  for (std::size_t x = 0; x < 2; ++x) {
    for (std::size_t y = 0; y < 2; ++y) {
      const double pxy = game.input_prob(x, y);
      if (pxy == 0.0) continue;
      for (std::size_t a = 0; a < 2; ++a) {
        for (std::size_t b = 0; b < 2; ++b) {
          if (!game.wins(x, y, a, b)) continue;
          const double sa = a == 0 ? 1.0 : -1.0;
          const double sb = b == 0 ? 1.0 : -1.0;
          const double w = pxy / 4.0;
          obj.constant += w;
          obj.coeff[x] += w * sa;            // <Ax>
          obj.coeff[2 + y] += w * sb;        // <By>
          obj.coeff[4 + 2 * x + y] += w * sa * sb;  // <AxBy>
        }
      }
    }
  }
  return obj;
}

/// Inverse of a Hermitian positive-definite matrix via eigendecomposition;
/// also reports the smallest eigenvalue.
qcore::CMat pd_inverse(const qcore::CMat& g, double& min_eig) {
  const qcore::EigResult e = qcore::eigh(g);
  min_eig = e.values.front();
  qcore::CMat d(kDim, kDim);
  for (std::size_t i = 0; i < kDim; ++i) {
    d.at(i, i) = qcore::Cx{1.0 / e.values[i], 0.0};
  }
  return e.vectors * d * e.vectors.adjoint();
}

/// tr(M P_k) for the 0/1 indicator of parameter k (symmetric positions).
double trace_against(const qcore::CMat& m, std::size_t k) {
  double s = 0.0;
  for (const auto& [i, j] : parameter_positions()[k]) {
    s += 2.0 * m.at(static_cast<std::size_t>(i), static_cast<std::size_t>(j))
                   .real();
  }
  return s;
}

}  // namespace

NpaResult npa1_upper_bound(const TwoPartyGame& game, const NpaOptions& opts) {
  FTL_ASSERT_MSG(game.num_x() == 2 && game.num_y() == 2 &&
                     game.num_a() == 2 && game.num_b() == 2,
                 "npa1_upper_bound supports 2-input binary games");
  const Objective obj = build_objective(game);

  const obs::ScopedSpan span("games.npa1_upper_bound", "games");
  obs::registry().counter("games.npa.calls").inc();
  obs::Counter& m_outer = obs::registry().counter("games.npa.outer_iterations");
  obs::Counter& m_newton = obs::registry().counter("games.npa.newton_steps");

  std::array<double, kParams> theta{};  // Gamma = I: strictly feasible
  NpaResult out;

  double mu = 1.0;
  while (mu > opts.mu_final) {
    mu *= opts.mu_shrink;
    m_outer.inc();
    // Newton on f(theta) = c . theta + mu * logdet Gamma(theta).
    for (int it = 0; it < opts.newton_steps_per_mu; ++it) {
      m_newton.inc();
      double min_eig = 0.0;
      const qcore::CMat inv = pd_inverse(build_gamma(theta), min_eig);
      FTL_ASSERT_MSG(min_eig > 0.0, "iterate left the PSD cone");

      // Gradient and (negative) Hessian.
      std::vector<double> grad(kParams);
      for (std::size_t k = 0; k < kParams; ++k) {
        grad[k] = obj.coeff[k] + mu * trace_against(inv, k);
      }
      sdp::RMat hess(kParams, kParams);
      double diag_max = 0.0;
      for (std::size_t k = 0; k < kParams; ++k) {
        // inv * P_k, built sparsely from P_k's positions.
        qcore::CMat ipk(kDim, kDim);
        for (const auto& [i, j] : parameter_positions()[k]) {
          for (std::size_t r = 0; r < kDim; ++r) {
            ipk.at(r, static_cast<std::size_t>(j)) +=
                inv.at(r, static_cast<std::size_t>(i));
            ipk.at(r, static_cast<std::size_t>(i)) +=
                inv.at(r, static_cast<std::size_t>(j));
          }
        }
        const qcore::CMat m = ipk * inv;  // inv P_k inv
        for (std::size_t l = 0; l < kParams; ++l) {
          hess.at(k, l) = mu * trace_against(m, l);
        }
        diag_max = std::max(diag_max, hess.at(k, k));
      }
      // Ridge: near the PSD boundary (an optimal Gamma is often singular)
      // the Hessian becomes numerically rank-deficient.
      for (std::size_t k = 0; k < kParams; ++k) {
        hess.at(k, k) += 1e-12 * std::max(diag_max, 1.0);
      }
      std::vector<double> step = sdp::solve_linear(hess, grad);

      // Backtracking line search: stay strictly PD and increase f.
      double norm2 = 0.0;
      for (double s : step) norm2 += s * s;
      if (std::sqrt(norm2) < opts.newton_tol) break;
      double t = 1.0;
      bool moved = false;
      for (int bt = 0; bt < 60; ++bt, t *= 0.5) {
        std::array<double, kParams> cand = theta;
        for (std::size_t k = 0; k < kParams; ++k) cand[k] += t * step[k];
        double cand_min = 0.0;
        (void)pd_inverse(build_gamma(cand), cand_min);
        if (cand_min > 1e-14) {
          theta = cand;
          moved = true;
          break;
        }
      }
      if (!moved) break;
    }
  }

  double value = obj.constant;
  for (std::size_t k = 0; k < 8; ++k) value += obj.coeff[k] * theta[k];
  // The barrier keeps the iterate strictly inside; the analytic-centre
  // offset is bounded by mu * dim, which we add to stay a true upper bound.
  out.upper_bound = value + mu * static_cast<double>(kDim);
  out.converged = true;
  return out;
}

}  // namespace ftl::games
