#include "games/realize.hpp"

#include <cmath>

#include "util/assert.hpp"

namespace ftl::games {

namespace {

/// Orthonormalises the span of all strategy vectors (Gram-Schmidt) and
/// re-expresses each vector in that basis — the correlators depend only on
/// inner products, and fewer effective dimensions mean fewer qubits.
struct ReducedVectors {
  std::vector<std::vector<double>> alice;
  std::vector<std::vector<double>> bob;
  std::size_t rank = 0;
};

double dot(const std::vector<double>& a, const std::vector<double>& b) {
  double sum = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) sum += a[i] * b[i];
  return sum;
}

ReducedVectors reduce(const sdp::XorBiasResult& vectors) {
  std::vector<std::vector<double>> basis;
  auto add_to_basis = [&](const std::vector<double>& v) {
    std::vector<double> res = v;
    for (const auto& b : basis) {
      const double overlap = dot(b, v);
      for (std::size_t i = 0; i < res.size(); ++i) res[i] -= overlap * b[i];
    }
    // A residual this small next to v is rounding noise: normalised, it
    // would point anywhere, overlaps included.
    const double norm2 = dot(res, res);
    if (norm2 > 1e-10 * dot(v, v)) {
      const double inv = 1.0 / std::sqrt(norm2);
      for (double& x : res) x *= inv;
      basis.push_back(std::move(res));
    }
  };
  for (const auto& v : vectors.alice) add_to_basis(v);
  for (const auto& v : vectors.bob) add_to_basis(v);

  // Coordinates in the basis, rescaled to unit norm: the dropped noise
  // shortens them slightly, and an observable sum_m c_m gamma_m squares to
  // |c|^2 I. A zero vector stays zero.
  auto coords = [&](const std::vector<double>& v) {
    std::vector<double> c(basis.size());
    for (std::size_t b = 0; b < basis.size(); ++b) c[b] = dot(basis[b], v);
    const double norm = std::sqrt(dot(c, c));
    if (norm > 0.0) {
      for (double& x : c) x /= norm;
    }
    return c;
  };
  ReducedVectors out;
  out.rank = basis.size();
  for (const auto& v : vectors.alice) out.alice.push_back(coords(v));
  for (const auto& v : vectors.bob) out.bob.push_back(coords(v));
  return out;
}

/// Jordan-Wigner gamma string for index m in [0, 2k) on a k-qubit party
/// register: gamma_{2j} = Z^j X I..., gamma_{2j+1} = Z^j Y I... .
std::string gamma_ops(std::size_t m, std::size_t k) {
  const std::size_t j = m / 2;
  std::string ops(k, 'I');
  for (std::size_t q = 0; q < j; ++q) ops[q] = 'Z';
  ops[j] = (m % 2 == 0) ? 'X' : 'Y';
  return ops;
}

/// Builds a party observable sum_m coeff_m Gamma_m embedded into the full
/// 2k-qubit register. `transpose` flips the sign of Y-type terms (Bob uses
/// gamma^T; X^T = X, Z^T = Z, Y^T = -Y).
qcore::PauliSum build_observable(const std::vector<double>& coeffs,
                                 std::size_t k, bool bob_side,
                                 bool transpose) {
  std::vector<qcore::PauliTerm> terms;
  for (std::size_t m = 0; m < coeffs.size(); ++m) {
    if (std::abs(coeffs[m]) < 1e-14) continue;
    const std::string local = gamma_ops(m, k);
    qcore::PauliTerm t;
    t.coefficient = coeffs[m];
    if (transpose && local.find('Y') != std::string::npos) {
      t.coefficient = -t.coefficient;
    }
    t.ops = bob_side ? std::string(k, 'I') + local
                     : local + std::string(k, 'I');
    terms.push_back(std::move(t));
  }
  if (terms.empty()) {
    // Zero vector (possible for irrelevant inputs): measure gamma_0 — the
    // outcome is a fair coin uncorrelated with everything.
    qcore::PauliTerm t;
    t.coefficient = 1.0;
    const std::string local = gamma_ops(0, k);
    t.ops = bob_side ? std::string(k, 'I') + local
                     : local + std::string(k, 'I');
    terms.push_back(std::move(t));
  }
  return qcore::PauliSum(std::move(terms));
}

}  // namespace

RealizedXorStrategy::RealizedXorStrategy(XorGame game,
                                         const sdp::XorBiasResult& vectors)
    : game_(std::move(game)) {
  FTL_ASSERT(vectors.alice.size() == game_.num_x());
  FTL_ASSERT(vectors.bob.size() == game_.num_y());
  const ReducedVectors red = reduce(vectors);
  FTL_ASSERT(red.rank >= 1);
  k_ = (red.rank + 1) / 2;
  FTL_ASSERT_MSG(k_ <= 6, "register would exceed 12 qubits");
  for (const auto& u : red.alice) {
    alice_.push_back(build_observable(u, k_, /*bob_side=*/false,
                                      /*transpose=*/false));
  }
  for (const auto& v : red.bob) {
    bob_.push_back(build_observable(v, k_, /*bob_side=*/true,
                                    /*transpose=*/true));
  }
}

qcore::StateVec RealizedXorStrategy::shared_state() const {
  const std::size_t d = std::size_t{1} << k_;
  std::vector<qcore::Cx> amps(d * d, qcore::Cx{0, 0});
  const double r = 1.0 / std::sqrt(static_cast<double>(d));
  for (std::size_t i = 0; i < d; ++i) {
    amps[(i << k_) | i] = qcore::Cx{r, 0.0};
  }
  return qcore::StateVec::from_amplitudes(std::move(amps));
}

double RealizedXorStrategy::correlator(std::size_t x, std::size_t y) const {
  FTL_ASSERT(x < alice_.size() && y < bob_.size());
  // E = <Phi| B_y A_x |Phi> (the observables commute — disjoint qubits).
  const qcore::StateVec phi = shared_state();
  const std::vector<qcore::Cx> a_phi = alice_[x].apply(phi);
  std::vector<qcore::Cx> ba_phi(phi.dim(), qcore::Cx{0.0, 0.0});
  for (const qcore::PauliTerm& t : bob_[y].terms()) {
    qcore::accumulate_pauli_term(t, a_phi, ba_phi);
  }
  return qcore::inner(phi.amplitudes(), ba_phi).real();
}

double RealizedXorStrategy::value() const {
  double bias = 0.0;
  for (std::size_t x = 0; x < game_.num_x(); ++x) {
    for (std::size_t y = 0; y < game_.num_y(); ++y) {
      const double pxy = game_.input_prob(x, y);
      if (pxy == 0.0) continue;
      const double sign = game_.f(x, y) == 0 ? 1.0 : -1.0;
      bias += pxy * sign * correlator(x, y);
    }
  }
  return 0.5 * (1.0 + bias);
}

std::pair<int, int> RealizedXorStrategy::play(std::size_t x, std::size_t y,
                                              util::Rng& rng) const {
  FTL_ASSERT(x < alice_.size() && y < bob_.size());
  qcore::StateVec psi = shared_state();
  const int a_pm = alice_[x].measure(psi, rng);
  const int b_pm = bob_[y].measure(psi, rng);
  return {a_pm > 0 ? 0 : 1, b_pm > 0 ? 0 : 1};
}

const qcore::PauliSum& RealizedXorStrategy::alice_observable(
    std::size_t x) const {
  FTL_ASSERT(x < alice_.size());
  return alice_[x];
}

const qcore::PauliSum& RealizedXorStrategy::bob_observable(
    std::size_t y) const {
  FTL_ASSERT(y < bob_.size());
  return bob_[y];
}

RealizedXorStrategy realize_optimal_strategy(const XorGame& game,
                                             const sdp::GramOptions& opts) {
  return RealizedXorStrategy(game, game.quantum_bias(opts));
}

}  // namespace ftl::games
