#include "sdp/tsirelson.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "fnv1a.hpp"
#include "games/affinity.hpp"
#include "games/xor_game.hpp"
#include "obs/metrics.hpp"
#include "util/rng.hpp"

namespace ftl::sdp {
namespace {

constexpr double kInvSqrt2 = 0.70710678118654752;

TEST(MaxGram, SingleElementIsTrivial) {
  SymMatrix c(1);
  c.at(0, 0) = 5.0;  // diagonal is excluded from the objective
  const GramResult r = max_gram(c);
  EXPECT_NEAR(r.value, 0.0, 1e-12);
}

TEST(MaxGram, TwoVectorsAlign) {
  // max 2 * C01 <r0, r1> = 2 * 3 when the unit vectors align.
  SymMatrix c(2);
  c.at(0, 1) = 3.0;
  c.at(1, 0) = 3.0;
  const GramResult r = max_gram(c);
  EXPECT_NEAR(r.value, 6.0, 1e-9);
  EXPECT_TRUE(r.converged);
}

TEST(MaxGram, TwoVectorsAntiAlign) {
  SymMatrix c(2);
  c.at(0, 1) = -2.0;
  c.at(1, 0) = -2.0;
  const GramResult r = max_gram(c);
  EXPECT_NEAR(r.value, 4.0, 1e-9);
}

TEST(MaxGram, TriangleFrustration) {
  // Three mutually repelling unit vectors (C_ij = -1): the optimum is the
  // Mercedes configuration at 120 degrees, value 2 * 3 * (1/2) = 3.
  SymMatrix c(3);
  for (int i = 0; i < 3; ++i) {
    for (int j = 0; j < 3; ++j) {
      if (i != j) c.at(i, j) = -1.0;
    }
  }
  const GramResult r = max_gram(c);
  EXPECT_NEAR(r.value, 3.0, 1e-7);
}

TEST(MaxGram, RowsAreUnitNorm) {
  SymMatrix c(4);
  c.at(0, 1) = 1.0;
  c.at(1, 0) = 1.0;
  c.at(2, 3) = -0.5;
  c.at(3, 2) = -0.5;
  const GramResult r = max_gram(c);
  for (const auto& row : r.rows) {
    double n2 = 0.0;
    for (double x : row) n2 += x * x;
    EXPECT_NEAR(n2, 1.0, 1e-9);
  }
}

TEST(MaxGram, DeterministicForFixedSeed) {
  SymMatrix c(3);
  c.at(0, 1) = 1.0;
  c.at(1, 0) = 1.0;
  c.at(1, 2) = -0.7;
  c.at(2, 1) = -0.7;
  GramOptions opts;
  opts.seed = 99;
  const GramResult r1 = max_gram(c, opts);
  const GramResult r2 = max_gram(c, opts);
  EXPECT_DOUBLE_EQ(r1.value, r2.value);
}

TEST(MaxGram, SweepCounterCountsEverySweepOfEveryRestart) {
  // tol = -1 never stops a restart early: each runs all its sweeps and
  // ends unconverged.
  SymMatrix c(3);
  c.at(0, 1) = 1.0;
  c.at(1, 0) = 1.0;
  c.at(1, 2) = -0.7;
  c.at(2, 1) = -0.7;
  GramOptions opts;
  opts.max_sweeps = 3;
  opts.tol = -1.0;
  opts.restarts = 2;
  const obs::Counter& sweeps = obs::registry().counter("sdp.gram.sweeps");
  const std::uint64_t before = sweeps.value();
  const GramResult r = max_gram(c, opts);
  EXPECT_FALSE(r.converged);
#if FTL_OBS_ENABLED
  EXPECT_EQ(sweeps.value() - before, 6u);
#else
  (void)before;
#endif
}

/// Deterministic warm rows with no zero row, so a solve started from them
/// draws nothing from the RNG (whose normals go through libm's log).
std::vector<std::vector<double>> pinned_warm_rows(std::size_t n,
                                                  std::size_t len) {
  std::vector<std::vector<double>> w(n, std::vector<double>(len, 0.0));
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t k = 0; k < len; ++k) {
      const int v = static_cast<int>((7 * i + 3 * k + 1) % 11) - 5;
      w[i][k] = static_cast<double>(v) / 8.0;
    }
  }
  return w;
}

// The value, convergence flag and every row of each solve, bit for bit,
// folded into one hash. The constant is the output of the dense solver that
// the nonzero-coupling solver replaced, so a change to the order of any
// floating-point operation moves it. Every solve is one restart from
// explicit warm rows, so only IEEE arithmetic and sqrt enter, and the
// constant does not depend on libm.
TEST(Gram, SolveIsPinnedAtParent) {
  test::Fnv1a h;
  const auto fold_rows = [&h](const std::vector<std::vector<double>>& rows) {
    h.u64(rows.size());
    for (const auto& r : rows) {
      h.u64(r.size());
      for (const double v : r) h.f64(v);
    }
  };

  // Sweep-style XOR games on 8-, 10- and 12-vertex affinity graphs.
  util::Rng rng(1717);
  for (const std::size_t n : {8, 10, 12}) {
    for (const double p : {0.3, 0.5, 0.8}) {
      const auto m = games::XorGame::from_affinity(
                         games::AffinityGraph::random(n, p, rng))
                         .cost_matrix();
      GramOptions opts;
      opts.restarts = 1;
      opts.warm_rows = pinned_warm_rows(2 * n, 2 * n);
      const XorBiasResult r = xor_quantum_bias(m, opts);
      h.f64(r.bias);
      h.u64(r.converged ? 1 : 0);
      fold_rows(r.alice);
      fold_rows(r.bob);
    }
  }

  // A general cost matrix: asymmetric entries (C_ij != 0 where C_ji = 0),
  // pairs with C_ij + C_ji == 0, -0.0 entries and a nonzero diagonal.
  constexpr std::size_t kN = 9;
  SymMatrix c(kN);
  for (std::size_t i = 0; i < kN; ++i) {
    for (std::size_t j = 0; j < kN; ++j) {
      const int v = static_cast<int>((5 * i + 3 * j + 2) % 9) - 4;
      c.at(i, j) = static_cast<double>(v) / 4.0;
    }
  }
  c.at(0, 3) = 0.75;
  c.at(3, 0) = 0.0;  // one-sided
  c.at(1, 4) = -0.0;
  c.at(4, 1) = 0.0;  // -0 + 0: no coupling at all
  c.at(2, 5) = 0.5;
  c.at(5, 2) = -0.5;  // cancels in the gradient, not in the objective
  c.at(6, 7) = -0.0;
  c.at(7, 6) = -0.0;
  for (const std::size_t rank : {std::size_t{0}, std::size_t{4}}) {
    for (const std::size_t warm_len : {kN, std::size_t{3}}) {
      // rank 4 truncates the 9-long warm rows and pads the 3-long ones.
      GramOptions opts;
      opts.rank = rank;
      opts.restarts = 1;
      opts.warm_rows = pinned_warm_rows(kN, warm_len);
      const GramResult r = max_gram(c, opts);
      h.f64(r.value);
      h.u64(r.converged ? 1 : 0);
      fold_rows(r.rows);
    }
  }

  EXPECT_EQ(h.h, 0x332f6959c5ae4a6eULL);
}

TEST(XorBias, ChshIsOneOverSqrt2) {
  // CHSH cost matrix: pi = 1/4 each, sign +1 except (1,1).
  std::vector<std::vector<double>> m{{0.25, 0.25}, {0.25, -0.25}};
  const XorBiasResult r = xor_quantum_bias(m);
  EXPECT_NEAR(r.bias, kInvSqrt2, 1e-7);
  EXPECT_TRUE(r.converged);
  EXPECT_EQ(r.alice.size(), 2u);
  EXPECT_EQ(r.bob.size(), 2u);
}

TEST(XorBias, FlippedChshSameBias) {
  std::vector<std::vector<double>> m{{-0.25, -0.25}, {-0.25, 0.25}};
  EXPECT_NEAR(xor_quantum_bias(m).bias, kInvSqrt2, 1e-7);
}

TEST(XorBias, TrivialGameHasBiasOne) {
  // f == 0 everywhere: always agree; quantum bias = classical = 1.
  std::vector<std::vector<double>> m{{0.5, 0.0}, {0.0, 0.5}};
  EXPECT_NEAR(xor_quantum_bias(m).bias, 1.0, 1e-8);
}

TEST(XorBias, AntiCorrelationGame) {
  // f == 1 everywhere: always disagree; also achievable exactly.
  std::vector<std::vector<double>> m{{-0.5, -0.5}};
  EXPECT_NEAR(xor_quantum_bias(m).bias, 1.0, 1e-8);
}

TEST(XorBias, ScalesLinearlyWithCosts) {
  std::vector<std::vector<double>> m{{0.25, 0.25}, {0.25, -0.25}};
  std::vector<std::vector<double>> m2 = m;
  for (auto& row : m2) {
    for (double& v : row) v *= 2.0;
  }
  EXPECT_NEAR(xor_quantum_bias(m2).bias, 2.0 * xor_quantum_bias(m).bias,
              1e-7);
}

TEST(XorBias, VectorsRealiseTheBias) {
  std::vector<std::vector<double>> m{{0.25, 0.25}, {0.25, -0.25}};
  const XorBiasResult r = xor_quantum_bias(m);
  double check = 0.0;
  for (std::size_t x = 0; x < 2; ++x) {
    for (std::size_t y = 0; y < 2; ++y) {
      double dot = 0.0;
      for (std::size_t k = 0; k < r.alice[x].size(); ++k) {
        dot += r.alice[x][k] * r.bob[y][k];
      }
      check += m[x][y] * dot;
    }
  }
  EXPECT_NEAR(check, r.bias, 1e-9);
}

TEST(XorBias, RectangularGame) {
  // 3 inputs for Alice, 2 for Bob; uniform weights, all-agree condition.
  std::vector<std::vector<double>> m(3, std::vector<double>(2, 1.0 / 6.0));
  EXPECT_NEAR(xor_quantum_bias(m).bias, 1.0, 1e-8);
}

TEST(XorBias, MoreRestartsNeverHurt) {
  std::vector<std::vector<double>> m{{0.2, -0.3, 0.1},
                                     {-0.1, 0.25, -0.15},
                                     {0.05, 0.1, -0.3}};
  GramOptions few;
  few.restarts = 1;
  GramOptions many;
  many.restarts = 16;
  EXPECT_GE(xor_quantum_bias(m, many).bias,
            xor_quantum_bias(m, few).bias - 1e-9);
}

}  // namespace
}  // namespace ftl::sdp
