#include "sdp/tsirelson.hpp"

#include <algorithm>
#include <cmath>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/assert.hpp"

namespace ftl::sdp {

namespace {

double dot(const double* a, const double* b, std::size_t len) {
  double s = 0.0;
  for (std::size_t k = 0; k < len; ++k) s += a[k] * b[k];
  return s;
}

double vec_norm(const double* a, std::size_t len) {
  return std::sqrt(dot(a, a, len));
}

void random_unit_row(double* r, std::size_t rank, ftl::util::Rng& rng) {
  double n2;
  do {
    for (std::size_t k = 0; k < rank; ++k) r[k] = rng.normal();
    n2 = vec_norm(r, rank);
  } while (n2 < 1e-12);
  for (std::size_t k = 0; k < rank; ++k) r[k] /= n2;
}

/// The nonzero couplings of C, in the orders the solver sums them.
struct Couplings {
  struct Neighbour {
    std::size_t j;
    double cij;  // C_ij + C_ji
  };
  struct Term {
    std::size_t pair;  // index into `pairs`
    double cij;        // C_ij
  };
  /// Row i's neighbours are nbr[nbr_start[i] .. nbr_start[i + 1]), j
  /// ascending, skipping j == i and C_ij + C_ji == 0.
  std::vector<std::size_t> nbr_start;
  std::vector<Neighbour> nbr;
  /// The objective's nonzero terms in (i, j) order, and the unordered
  /// pairs {i, j} whose inner products they need.
  std::vector<Term> terms;
  std::vector<std::pair<std::size_t, std::size_t>> pairs;

  explicit Couplings(const SymMatrix& c) {
    const std::size_t n = c.size();
    nbr_start.reserve(n + 1);
    for (std::size_t i = 0; i < n; ++i) {
      nbr_start.push_back(nbr.size());
      for (std::size_t j = 0; j < n; ++j) {
        if (j == i) continue;
        const double cij = c.at(i, j) + c.at(j, i);
        if (cij != 0.0) nbr.push_back({j, cij});
      }
    }
    nbr_start.push_back(nbr.size());
    std::vector<std::size_t> pair_of(n * n, 0);  // index + 1; 0 = unseen
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < n; ++j) {
        if (i == j || c.at(i, j) == 0.0) continue;
        const std::size_t lo = std::min(i, j);
        const std::size_t hi = std::max(i, j);
        std::size_t& slot = pair_of[lo * n + hi];
        if (slot == 0) {
          pairs.emplace_back(lo, hi);
          slot = pairs.size();
        }
        terms.push_back({slot - 1, c.at(i, j)});
      }
    }
  }

  /// Objective sum_{i != j} C_ij <r_i, r_j> over the flat n x rank rows.
  /// Zero terms are skipped: each would add a +-0 to a sum that starts at
  /// +0, which changes nothing. <r_i, r_j> and <r_j, r_i> are the same sum
  /// term by term, so each pair's product is computed once.
  double objective(const std::vector<double>& rows, std::size_t rank,
                   std::vector<double>& pair_dot) const {
    for (std::size_t p = 0; p < pairs.size(); ++p) {
      pair_dot[p] = dot(&rows[pairs[p].first * rank],
                        &rows[pairs[p].second * rank], rank);
    }
    double s = 0.0;
    for (const Term& t : terms) s += t.cij * pair_dot[t.pair];
    return s;
  }
};

}  // namespace

GramResult max_gram(const SymMatrix& c, const GramOptions& opts) {
  const std::size_t n = c.size();
  FTL_ASSERT(n >= 1);
  const obs::ScopedSpan span("sdp.max_gram", "sdp");
  obs::registry().counter("sdp.gram.solves").inc();
  obs::Counter& m_sweeps = obs::registry().counter("sdp.gram.sweeps");
  const std::size_t rank = opts.rank == 0 ? n : opts.rank;
  ftl::util::Rng rng(opts.seed);

  GramResult best;
  best.value = -1e300;

  const bool have_warm = opts.warm_rows.size() == n;
  if (have_warm) obs::registry().counter("sdp.gram.warm_starts").inc();

  const Couplings cp(c);
  std::vector<double> pair_dot(cp.pairs.size());
  // Row i is rows[i * rank .. (i + 1) * rank).
  std::vector<double> rows(n * rank);
  std::vector<double> best_rows;
  std::vector<double> grad(rank);
  for (int restart = 0; restart < opts.restarts; ++restart) {
    if (restart == 0 && have_warm) {
      // Restart 0 resumes from the caller's rows; rows that are too short
      // are zero-padded, degenerate (near-zero) rows fall back to random.
      for (std::size_t i = 0; i < n; ++i) {
        double* ri = &rows[i * rank];
        std::fill(ri, ri + rank, 0.0);
        const auto& w = opts.warm_rows[i];
        std::copy_n(w.begin(), std::min(rank, w.size()), ri);
        const double nrm = vec_norm(ri, rank);
        if (nrm < 1e-12) {
          random_unit_row(ri, rank, rng);
        } else {
          for (std::size_t k = 0; k < rank; ++k) ri[k] /= nrm;
        }
      }
    } else {
      for (std::size_t i = 0; i < n; ++i) {
        random_unit_row(&rows[i * rank], rank, rng);
      }
    }
    double prev = cp.objective(rows, rank, pair_dot);
    bool converged = false;
    for (int sweep = 0; sweep < opts.max_sweeps; ++sweep) {
      // Exact block-coordinate step: the conditional optimum for row i with
      // all others fixed is the normalised gradient g_i = 2 sum_j C_ij r_j
      // (symmetric C; the diagonal term only rescales r_i and is ignored
      // because rows stay unit-norm).
      for (std::size_t i = 0; i < n; ++i) {
        std::fill(grad.begin(), grad.end(), 0.0);
        for (std::size_t e = cp.nbr_start[i]; e < cp.nbr_start[i + 1]; ++e) {
          const double cij = cp.nbr[e].cij;
          const double* rj = &rows[cp.nbr[e].j * rank];
          for (std::size_t k = 0; k < rank; ++k) grad[k] += cij * rj[k];
        }
        const double gnorm = vec_norm(grad.data(), rank);
        if (gnorm < 1e-14) continue;  // row is unconstrained; keep as is
        double* ri = &rows[i * rank];
        for (std::size_t k = 0; k < rank; ++k) ri[k] = grad[k] / gnorm;
      }
      m_sweeps.inc();
      const double cur = cp.objective(rows, rank, pair_dot);
      if (cur - prev < opts.tol) {
        prev = cur;
        converged = true;
        break;
      }
      prev = cur;
    }
    if (prev > best.value) {
      best.value = prev;
      best_rows = rows;
      best.converged = converged;
    }
  }
  if (!best_rows.empty()) {
    best.rows.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      const double* r = &best_rows[i * rank];
      best.rows[i].assign(r, r + rank);
    }
  }
  return best;
}

XorBiasResult xor_quantum_bias(const std::vector<std::vector<double>>& m,
                               const GramOptions& opts) {
  const std::size_t nx = m.size();
  FTL_ASSERT(nx >= 1);
  const std::size_t ny = m.front().size();
  for (const auto& row : m) FTL_ASSERT_MSG(row.size() == ny, "ragged matrix");

  // Bipartite embedding: indices [0, nx) are Alice's vectors, [nx, nx+ny)
  // Bob's; C places M/2 on each off-diagonal block so that
  // <C, RR^T> = sum_xy M_xy <u_x, v_y>.
  SymMatrix c(nx + ny);
  for (std::size_t x = 0; x < nx; ++x) {
    for (std::size_t y = 0; y < ny; ++y) {
      c.at(x, nx + y) = m[x][y] / 2.0;
      c.at(nx + y, x) = m[x][y] / 2.0;
    }
  }

  const GramResult g = max_gram(c, opts);
  XorBiasResult out;
  out.bias = g.value;
  out.converged = g.converged;
  out.alice.assign(g.rows.begin(), g.rows.begin() + static_cast<long>(nx));
  out.bob.assign(g.rows.begin() + static_cast<long>(nx), g.rows.end());
  return out;
}

}  // namespace ftl::sdp
