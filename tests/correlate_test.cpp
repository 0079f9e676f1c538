#include "correlate/decision_source.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "games/chsh.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace ftl::correlate {
namespace {

/// Empirical probability that the source satisfies the flipped CHSH
/// condition on input (x, y).
double sampled_win(PairedDecisionSource& src, int x, int y, int n,
                   util::Rng& rng) {
  int wins = 0;
  const int target = (x == 1 && y == 1) ? 0 : 1;
  for (int i = 0; i < n; ++i) {
    const auto [a, b] = src.decide(x, y, rng);
    if ((a ^ b) == target) ++wins;
  }
  return static_cast<double>(wins) / n;
}

double sampled_marginal(PairedDecisionSource& src, int endpoint, int x, int y,
                        int n, util::Rng& rng) {
  int ones = 0;
  for (int i = 0; i < n; ++i) {
    const auto [a, b] = src.decide(x, y, rng);
    ones += endpoint == 0 ? a : b;
  }
  return static_cast<double>(ones) / n;
}

TEST(IndependentRandom, WinsHalfTheTime) {
  IndependentRandomSource src;
  util::Rng rng(1);
  for (int x = 0; x < 2; ++x) {
    for (int y = 0; y < 2; ++y) {
      EXPECT_NEAR(sampled_win(src, x, y, 20000, rng), 0.5, 0.015);
      EXPECT_NEAR(src.win_probability(x, y), 0.5, 1e-12);
    }
  }
}

TEST(ClassicalChsh, WinsExceptOnBothC) {
  ClassicalChshSource src;
  util::Rng rng(2);
  EXPECT_NEAR(sampled_win(src, 0, 0, 5000, rng), 1.0, 1e-12);
  EXPECT_NEAR(sampled_win(src, 0, 1, 5000, rng), 1.0, 1e-12);
  EXPECT_NEAR(sampled_win(src, 1, 0, 5000, rng), 1.0, 1e-12);
  EXPECT_NEAR(sampled_win(src, 1, 1, 5000, rng), 0.0, 1e-12);
}

TEST(ClassicalChsh, AverageIsThreeQuarters) {
  ClassicalChshSource src;
  double total = 0.0;
  for (int x = 0; x < 2; ++x) {
    for (int y = 0; y < 2; ++y) total += src.win_probability(x, y);
  }
  EXPECT_NEAR(total / 4.0, 0.75, 1e-12);
}

TEST(ClassicalChsh, MarginalsUniformViaSharedCoin) {
  ClassicalChshSource src;
  util::Rng rng(3);
  EXPECT_NEAR(sampled_marginal(src, 0, 1, 1, 20000, rng), 0.5, 0.015);
  EXPECT_NEAR(sampled_marginal(src, 1, 0, 0, 20000, rng), 0.5, 0.015);
}

TEST(QuantumChsh, WinProbabilityNearTsirelson) {
  ChshSource src(1.0);
  util::Rng rng(4);
  const double expect = std::cos(M_PI / 8.0) * std::cos(M_PI / 8.0);
  for (int x = 0; x < 2; ++x) {
    for (int y = 0; y < 2; ++y) {
      EXPECT_NEAR(sampled_win(src, x, y, 30000, rng), expect, 0.01);
      EXPECT_NEAR(src.win_probability(x, y), expect, 1e-10);
    }
  }
}

TEST(QuantumChsh, CachedJointMatchesStrategy) {
  ChshSource src(0.85);
  // The density-matrix path of the same pair is the oracle.
  const games::QuantumStrategy strategy = games::chsh_quantum_strategy(
      games::chsh_optimal_angles(), /*flip_bob_output=*/true, 0.85);
  util::Rng rng(5);
  // Sample and compare against the exact Born probabilities.
  for (int x = 0; x < 2; ++x) {
    for (int y = 0; y < 2; ++y) {
      int counts[2][2] = {{0, 0}, {0, 0}};
      const int n = 40000;
      for (int i = 0; i < n; ++i) {
        const auto [a, b] = src.decide(x, y, rng);
        ++counts[a][b];
      }
      for (int a = 0; a < 2; ++a) {
        for (int b = 0; b < 2; ++b) {
          EXPECT_NEAR(static_cast<double>(counts[a][b]) / n,
                      strategy.joint_probability(x, y, a, b), 0.012);
        }
      }
    }
  }
}

TEST(QuantumChsh, TableMatchesDensityPath) {
  for (int i = 0; i <= 8; ++i) {
    const double v = i / 8.0;
    const ChshSource src(v);
    const games::QuantumStrategy strategy = games::chsh_quantum_strategy(
        games::chsh_optimal_angles(), /*flip_bob_output=*/true, v);
    for (int x = 0; x < 2; ++x) {
      for (int y = 0; y < 2; ++y) {
        for (int a = 0; a < 2; ++a) {
          for (int b = 0; b < 2; ++b) {
            EXPECT_NEAR(src.table().probability(x, y, a, b),
                        strategy.joint_probability(x, y, a, b), 1e-12)
                << "v=" << v << " x=" << x << " y=" << y << " a=" << a
                << " b=" << b;
          }
        }
      }
    }
  }
}

TEST(QuantumChsh, NoisyVisibilityDegradesLinearly) {
  for (double v : {1.0, 0.8, 0.5}) {
    ChshSource src(v);
    EXPECT_NEAR(src.win_probability(0, 0), 0.5 * (1.0 + v / std::sqrt(2.0)),
                1e-10);
  }
}

TEST(QuantumChsh, BelowThresholdLosesToClassical) {
  ChshSource src(0.5);
  EXPECT_LT(src.win_probability(0, 0), 0.75);
}

TEST(QuantumChsh, MarginalsUniform) {
  ChshSource src(1.0);
  util::Rng rng(6);
  for (int x = 0; x < 2; ++x) {
    for (int y = 0; y < 2; ++y) {
      EXPECT_NEAR(sampled_marginal(src, 0, x, y, 20000, rng), 0.5, 0.015);
      EXPECT_NEAR(sampled_marginal(src, 1, x, y, 20000, rng), 0.5, 0.015);
    }
  }
}

TEST(Omniscient, AlwaysWins) {
  OmniscientOracleSource src;
  util::Rng rng(7);
  for (int x = 0; x < 2; ++x) {
    for (int y = 0; y < 2; ++y) {
      EXPECT_NEAR(sampled_win(src, x, y, 2000, rng), 1.0, 1e-12);
    }
  }
}

TEST(Omniscient, MarginalsStillUniform) {
  OmniscientOracleSource src;
  util::Rng rng(8);
  EXPECT_NEAR(sampled_marginal(src, 0, 1, 1, 20000, rng), 0.5, 0.015);
}

TEST(Factory, CreatesEveryKind) {
  util::Rng rng(9);
  for (const char* kind :
       {"independent", "classical-chsh", "quantum-chsh", "omniscient"}) {
    const auto src = make_source(kind);
    ASSERT_NE(src, nullptr) << kind;
    const auto [a, b] = src->decide(0, 1, rng);
    EXPECT_TRUE(a == 0 || a == 1);
    EXPECT_TRUE(b == 0 || b == 1);
  }
}

TEST(Factory, RejectsUnknownKind) {
  EXPECT_DEATH((void)make_source("telepathy"), "unknown");
}

TEST(Sources, StrictOrderingOfPower) {
  // independent < classical < quantum < omniscient, averaged over inputs.
  IndependentRandomSource ind;
  ClassicalChshSource cls;
  ChshSource qsrc(1.0);
  OmniscientOracleSource omni;
  auto avg = [](PairedDecisionSource& s) {
    double t = 0.0;
    for (int x = 0; x < 2; ++x) {
      for (int y = 0; y < 2; ++y) t += s.win_probability(x, y);
    }
    return t / 4.0;
  };
  EXPECT_LT(avg(ind), avg(cls));
  EXPECT_LT(avg(cls), avg(qsrc));
  EXPECT_LT(avg(qsrc), avg(omni));
}

}  // namespace
}  // namespace ftl::correlate
