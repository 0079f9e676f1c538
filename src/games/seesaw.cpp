#include "games/seesaw.hpp"

#include <cmath>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "qcore/eigen.hpp"
#include "util/rng.hpp"

namespace ftl::games {

namespace {

using qcore::CMat;
using qcore::Cx;

/// Tr_B[(I (x) B) rho] — Alice's effective 2x2 operator for Bob effect B.
CMat traceout_bob(const CMat& rho, const CMat& b) {
  const CMat x = CMat::identity(2).kron(b) * rho;
  CMat r(2, 2);
  for (std::size_t i = 0; i < 2; ++i) {
    for (std::size_t j = 0; j < 2; ++j) {
      r.at(i, j) = x.at(i * 2 + 0, j * 2 + 0) + x.at(i * 2 + 1, j * 2 + 1);
    }
  }
  return r;
}

/// Tr_A[(A (x) I) rho] — Bob's effective 2x2 operator for Alice effect A.
CMat traceout_alice(const CMat& rho, const CMat& a) {
  const CMat x = a.kron(CMat::identity(2)) * rho;
  CMat r(2, 2);
  for (std::size_t k = 0; k < 2; ++k) {
    for (std::size_t l = 0; l < 2; ++l) {
      r.at(k, l) = x.at(0 * 2 + k, 0 * 2 + l) + x.at(1 * 2 + k, 1 * 2 + l);
    }
  }
  return r;
}

/// Projector onto the positive eigenspace of a Hermitian 2x2 operator.
CMat positive_eigenspace_projector(const CMat& d) {
  const qcore::EigResult e = qcore::eigh(d);
  CMat p(2, 2);
  for (std::size_t k = 0; k < 2; ++k) {
    if (e.values[k] <= 0.0) continue;
    const std::vector<Cx> col{e.vectors.at(0, k), e.vectors.at(1, k)};
    p += CMat::outer(col, col);
  }
  return p;
}

/// Measurement basis whose column 0 is the dominant eigenvector of d
/// (outcome 0 favoured where d is most positive). Always a valid unitary
/// frame even when the projector itself is rank 0 or 2.
CMat basis_from_operator(const CMat& d) {
  const qcore::EigResult e = qcore::eigh(d);  // ascending eigenvalues
  CMat b(2, 2);
  // Column 0 <- largest eigenvalue's vector, column 1 <- smallest's.
  b.at(0, 0) = e.vectors.at(0, 1);
  b.at(1, 0) = e.vectors.at(1, 1);
  b.at(0, 1) = e.vectors.at(0, 0);
  b.at(1, 1) = e.vectors.at(1, 0);
  return b;
}

struct Effects {
  CMat outcome0;  // effect for outcome 0; outcome 1 is I - outcome0
};

/// Projector-form value of the strategy (state, Alice effects, Bob effects).
double projector_value(const TwoPartyGame& game, const CMat& rho,
                       const std::vector<Effects>& alice,
                       const std::vector<Effects>& bob) {
  double v = 0.0;
  const CMat id = CMat::identity(2);
  for (std::size_t x = 0; x < game.num_x(); ++x) {
    const CMat a_eff[2] = {alice[x].outcome0, id - alice[x].outcome0};
    for (std::size_t y = 0; y < game.num_y(); ++y) {
      const double pxy = game.input_prob(x, y);
      if (pxy == 0.0) continue;
      const CMat b_eff[2] = {bob[y].outcome0, id - bob[y].outcome0};
      for (int a = 0; a < 2; ++a) {
        for (int b = 0; b < 2; ++b) {
          if (!game.wins(x, y, static_cast<std::size_t>(a),
                         static_cast<std::size_t>(b)))
            continue;
          v += pxy * (a_eff[a].kron(b_eff[b]) * rho).trace().real();
        }
      }
    }
  }
  return v;
}

std::vector<Cx> random_state(util::Rng& rng) {
  std::vector<Cx> psi(4);
  for (Cx& c : psi) c = Cx{rng.normal(), rng.normal()};
  qcore::normalize(psi);
  return psi;
}

}  // namespace

SeesawResult seesaw_optimize(const TwoPartyGame& game,
                             const SeesawOptions& opts) {
  FTL_ASSERT_MSG(game.num_a() == 2 && game.num_b() == 2,
                 "see-saw here supports binary outcomes");
  const std::size_t nx = game.num_x();
  const std::size_t ny = game.num_y();
  util::Rng rng(opts.seed);
  const CMat id = CMat::identity(2);

  const obs::ScopedSpan span("games.seesaw_optimize", "games");
  obs::registry().counter("games.seesaw.calls").inc();
  obs::Counter& m_restarts = obs::registry().counter("games.seesaw.restarts");
  obs::Counter& m_rounds = obs::registry().counter("games.seesaw.rounds");

  double best_value = -1.0;
  CMat best_rho;
  std::vector<Effects> best_alice;
  std::vector<Effects> best_bob;
  int best_rounds = 0;
  bool best_converged = false;

  const bool have_warm = opts.warm_start != nullptr &&
                         opts.warm_start->num_x() == nx &&
                         opts.warm_start->num_y() == ny;
  if (have_warm) obs::registry().counter("games.seesaw.warm_starts").inc();

  for (int restart = 0; restart < opts.restarts; ++restart) {
    m_restarts.inc();
    CMat rho;
    std::vector<Effects> alice(nx);
    std::vector<Effects> bob(ny);
    if (restart == 0 && have_warm) {
      // Resume from the warm strategy: its state, and rank-1 effects from
      // each measurement basis's outcome-0 column.
      rho = opts.warm_start->state().matrix();
      for (std::size_t x = 0; x < nx; ++x) {
        const CMat& b = opts.warm_start->alice_basis(x);
        const std::vector<Cx> col{b.at(0, 0), b.at(1, 0)};
        alice[x].outcome0 = CMat::outer(col, col);
      }
      for (std::size_t y = 0; y < ny; ++y) {
        const CMat& b = opts.warm_start->bob_basis(y);
        const std::vector<Cx> col{b.at(0, 0), b.at(1, 0)};
        bob[y].outcome0 = CMat::outer(col, col);
      }
    } else {
      // Random initial pure state and random rank-1 effects.
      std::vector<Cx> psi = random_state(rng);
      rho = CMat::outer(psi, psi);
      for (auto& e : alice) {
        const std::vector<Cx> v = random_state(rng);
        const std::vector<Cx> q{v[0], v[1]};
        std::vector<Cx> qn = q;
        qcore::normalize(qn);
        e.outcome0 = CMat::outer(qn, qn);
      }
      for (auto& e : bob) {
        const std::vector<Cx> v = random_state(rng);
        const std::vector<Cx> q{v[2], v[3]};
        std::vector<Cx> qn = q;
        qcore::normalize(qn);
        e.outcome0 = CMat::outer(qn, qn);
      }
    }

    double prev = projector_value(game, rho, alice, bob);
    int round = 0;
    bool converged = false;
    for (; round < opts.max_rounds; ++round) {
      // --- Alice step: for each x, A_x <- proj onto positive part of
      // D_x = G_x^0 - G_x^1 where G_x^a aggregates Bob and the state.
      for (std::size_t x = 0; x < nx; ++x) {
        CMat g0(2, 2);
        CMat g1(2, 2);
        for (std::size_t y = 0; y < ny; ++y) {
          const double pxy = game.input_prob(x, y);
          if (pxy == 0.0) continue;
          const CMat b_eff[2] = {bob[y].outcome0, id - bob[y].outcome0};
          for (int b = 0; b < 2; ++b) {
            const CMat r = traceout_bob(rho, b_eff[b]);
            if (game.wins(x, y, 0, static_cast<std::size_t>(b))) {
              g0 += r * Cx{pxy, 0.0};
            }
            if (game.wins(x, y, 1, static_cast<std::size_t>(b))) {
              g1 += r * Cx{pxy, 0.0};
            }
          }
        }
        alice[x].outcome0 = positive_eigenspace_projector(g0 - g1);
      }

      // --- Bob step, symmetric.
      for (std::size_t y = 0; y < ny; ++y) {
        CMat g0(2, 2);
        CMat g1(2, 2);
        for (std::size_t x = 0; x < nx; ++x) {
          const double pxy = game.input_prob(x, y);
          if (pxy == 0.0) continue;
          const CMat a_eff[2] = {alice[x].outcome0, id - alice[x].outcome0};
          for (int a = 0; a < 2; ++a) {
            const CMat l = traceout_alice(rho, a_eff[a]);
            if (game.wins(x, y, static_cast<std::size_t>(a), 0)) {
              g0 += l * Cx{pxy, 0.0};
            }
            if (game.wins(x, y, static_cast<std::size_t>(a), 1)) {
              g1 += l * Cx{pxy, 0.0};
            }
          }
        }
        bob[y].outcome0 = positive_eigenspace_projector(g0 - g1);
      }

      // --- State step: top eigenvector of the averaged win operator.
      if (opts.optimize_state) {
        CMat m(4, 4);
        for (std::size_t x = 0; x < nx; ++x) {
          const CMat a_eff[2] = {alice[x].outcome0, id - alice[x].outcome0};
          for (std::size_t y = 0; y < ny; ++y) {
            const double pxy = game.input_prob(x, y);
            if (pxy == 0.0) continue;
            const CMat b_eff[2] = {bob[y].outcome0, id - bob[y].outcome0};
            for (int a = 0; a < 2; ++a) {
              for (int b = 0; b < 2; ++b) {
                if (game.wins(x, y, static_cast<std::size_t>(a),
                              static_cast<std::size_t>(b))) {
                  m += a_eff[a].kron(b_eff[b]) * Cx{pxy, 0.0};
                }
              }
            }
          }
        }
        const qcore::EigResult e = qcore::eigh(m);
        std::vector<Cx> top(4);
        for (std::size_t i = 0; i < 4; ++i) top[i] = e.vectors.at(i, 3);
        rho = CMat::outer(top, top);
      }

      m_rounds.inc();
      const double cur = projector_value(game, rho, alice, bob);
      if (cur - prev < opts.tol) {
        prev = cur;
        converged = true;
        break;
      }
      prev = cur;
    }

    if (prev > best_value) {
      best_value = prev;
      best_rho = rho;
      best_alice = alice;
      best_bob = bob;
      best_rounds = round + 1;
      best_converged = converged;
    }
  }

  // Package as a QuantumStrategy: measurement bases from the effects'
  // eigenframes. For degenerate (rank-0/2) projectors the basis frame
  // cannot express a deterministic POVM, so strategy_value may fall below
  // the projector optimum `value`; both are reported.
  std::vector<CMat> alice_bases;
  std::vector<CMat> bob_bases;
  alice_bases.reserve(nx);
  bob_bases.reserve(ny);
  const CMat half = CMat::identity(2) * Cx{0.5, 0.0};
  for (const auto& e : best_alice) {
    alice_bases.push_back(basis_from_operator(e.outcome0 - half));
  }
  for (const auto& e : best_bob) {
    bob_bases.push_back(basis_from_operator(e.outcome0 - half));
  }
  // best_rho came out of an eigensolver; round tiny asymmetries away.
  CMat sym = (best_rho + best_rho.adjoint()) * Cx{0.5, 0.0};
  sym *= Cx{1.0 / sym.trace().real(), 0.0};

  SeesawResult out{
      best_value,
      QuantumStrategy(qcore::Density::from_matrix(sym),
                      std::move(alice_bases), std::move(bob_bases)),
      0.0, best_rounds, best_converged};
  out.strategy_value = out.strategy.value(game);
  return out;
}

}  // namespace ftl::games
