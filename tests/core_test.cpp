#include "core/coordinator.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "lb/simulator.hpp"

namespace ftl::core {
namespace {

double run_rounds(CorrelatedPair& pair, int rounds, util::Rng& rng) {
  for (int i = 0; i < rounds; ++i) {
    const int x = rng.bernoulli(0.5) ? 1 : 0;
    const int y = rng.bernoulli(0.5) ? 1 : 0;
    // Randomise call order: the physics must not care.
    if (rng.bernoulli(0.5)) {
      (void)pair.decide(0, x);
      (void)pair.decide(1, y);
    } else {
      (void)pair.decide(1, y);
      (void)pair.decide(0, x);
    }
  }
  return static_cast<double>(pair.stats().wins) /
         static_cast<double>(pair.stats().rounds);
}

TEST(CorrelatedPair, QuantumWinRate) {
  PairConfig cfg;
  cfg.backend = Backend::kQuantum;
  cfg.seed = 1;
  CorrelatedPair pair(cfg);
  util::Rng rng(2);
  const double win = run_rounds(pair, 20000, rng);
  EXPECT_NEAR(win, std::cos(M_PI / 8.0) * std::cos(M_PI / 8.0), 0.01);
  EXPECT_EQ(pair.stats().fallback_rounds, 0u);
}

TEST(CorrelatedPair, ClassicalWinRate) {
  PairConfig cfg;
  cfg.backend = Backend::kClassicalShared;
  cfg.seed = 3;
  CorrelatedPair pair(cfg);
  util::Rng rng(4);
  EXPECT_NEAR(run_rounds(pair, 20000, rng), 0.75, 0.01);
}

TEST(CorrelatedPair, IndependentWinRate) {
  PairConfig cfg;
  cfg.backend = Backend::kIndependent;
  cfg.seed = 5;
  CorrelatedPair pair(cfg);
  util::Rng rng(6);
  EXPECT_NEAR(run_rounds(pair, 20000, rng), 0.5, 0.01);
}

TEST(CorrelatedPair, OmniscientAlwaysWins) {
  PairConfig cfg;
  cfg.backend = Backend::kOmniscient;
  cfg.seed = 7;
  CorrelatedPair pair(cfg);
  util::Rng rng(8);
  EXPECT_NEAR(run_rounds(pair, 5000, rng), 1.0, 1e-12);
}

TEST(CorrelatedPair, NoisyVisibilityInterpolates) {
  PairConfig cfg;
  cfg.backend = Backend::kQuantum;
  cfg.visibility = 0.8;
  cfg.seed = 9;
  CorrelatedPair pair(cfg);
  util::Rng rng(10);
  EXPECT_NEAR(run_rounds(pair, 30000, rng),
              0.5 * (1.0 + 0.8 / std::sqrt(2.0)), 0.01);
}

TEST(CorrelatedPair, DoubleDecideAborts) {
  PairConfig cfg;
  cfg.seed = 11;
  CorrelatedPair pair(cfg);
  (void)pair.decide(0, 1);
  EXPECT_DEATH((void)pair.decide(0, 0), "already decided");
}

TEST(CorrelatedPair, ExpectedWinProbability) {
  PairConfig cfg;
  cfg.backend = Backend::kQuantum;
  cfg.visibility = 1.0;
  CorrelatedPair pair(cfg);
  EXPECT_NEAR(pair.expected_win_probability(),
              std::cos(M_PI / 8.0) * std::cos(M_PI / 8.0), 1e-10);
  cfg.backend = Backend::kClassicalShared;
  EXPECT_NEAR(CorrelatedPair(cfg).expected_win_probability(), 0.75, 1e-12);
}

TEST(CorrelatedPair, SupplyRationingCausesFallbacks) {
  PairConfig cfg;
  cfg.backend = Backend::kQuantum;
  cfg.visibility = 0.98;
  qnet::QnetConfig supply;
  supply.pair_rate_hz = 5e3;  // scarce vs 1e4 rounds/s
  cfg.supply = supply;
  cfg.round_rate_hz = 1e4;
  cfg.seed = 13;
  CorrelatedPair pair(cfg);
  util::Rng rng(14);
  const double win = run_rounds(pair, 20000, rng);
  EXPECT_GT(pair.stats().fallback_rounds, 1000u);
  EXPECT_GT(pair.stats().quantum_rounds, 1000u);
  // Win rate between pure-classical and pure-quantum.
  EXPECT_GT(win, 0.75 - 0.01);
  EXPECT_LT(win, 0.854);
}

TEST(CorrelatedPair, AbundantSupplyMostlyQuantum) {
  PairConfig cfg;
  cfg.backend = Backend::kQuantum;
  cfg.visibility = 0.98;
  qnet::QnetConfig supply;
  supply.pair_rate_hz = 1e6;
  cfg.supply = supply;
  cfg.round_rate_hz = 1e4;
  cfg.seed = 15;
  CorrelatedPair pair(cfg);
  util::Rng rng(16);
  (void)run_rounds(pair, 5000, rng);
  const auto& s = pair.stats();
  EXPECT_GT(static_cast<double>(s.quantum_rounds) /
                static_cast<double>(s.rounds),
            0.95);
}

TEST(Coordinator, EndpointsAreWiredToSamePair) {
  Coordinator coord(PairConfig{});
  auto [a, b] = coord.make_pair();
  (void)a.decide(1);
  (void)b.decide(1);
  EXPECT_EQ(coord.aggregate_stats().rounds, 1u);
}

TEST(Coordinator, MultiplePairsAggregate) {
  Coordinator coord(PairConfig{});
  auto [a1, b1] = coord.make_pair();
  auto [a2, b2] = coord.make_pair();
  for (int i = 0; i < 10; ++i) {
    (void)a1.decide(0);
    (void)b1.decide(1);
    (void)a2.decide(1);
    (void)b2.decide(1);
  }
  EXPECT_EQ(coord.aggregate_stats().rounds, 20u);
}

TEST(Coordinator, PairsGetDistinctSeeds) {
  PairConfig cfg;
  cfg.backend = Backend::kIndependent;
  Coordinator coord(cfg);
  auto [a1, b1] = coord.make_pair();
  auto [a2, b2] = coord.make_pair();
  int diff = 0;
  for (int i = 0; i < 64; ++i) {
    const int d1 = a1.decide(0);
    (void)b1.decide(0);
    const int d2 = a2.decide(0);
    (void)b2.decide(0);
    if (d1 != d2) ++diff;
  }
  EXPECT_GT(diff, 10);
}

TEST(Coordinator, ProvisioningReportsWorthwhileWhenSupplied) {
  qnet::QnetConfig supply;
  supply.pair_rate_hz = 1e6;
  supply.fiber_km = 0.2;
  const ProvisioningReport r =
      Coordinator::provision(supply, 0.98, 1e4, 0.5, 17);
  EXPECT_GT(r.pair_hit_fraction, 0.9);
  EXPECT_TRUE(r.quantum_worthwhile());
}

TEST(Coordinator, ProvisioningDetectsStarvation) {
  qnet::QnetConfig supply;
  supply.pair_rate_hz = 100.0;  // hopeless vs 1e4 req/s
  const ProvisioningReport r =
      Coordinator::provision(supply, 0.98, 1e4, 0.5, 18);
  EXPECT_LT(r.pair_hit_fraction, 0.05);
  EXPECT_LT(r.effective_win_probability, 0.76);
}

TEST(Coordinator, ProvisioningWindowWithoutRequestsHasNoWin) {
  // At 1e-3 requests/s no request lands in the 0.5 s window: the win is
  // undefined, not the 0 that sits below the classical fallback.
  const ProvisioningReport r =
      Coordinator::provision(qnet::QnetConfig{}, 0.98, 1e-3, 0.5, 1);
  EXPECT_TRUE(std::isnan(r.effective_win_probability));
  EXPECT_FALSE(r.quantum_worthwhile());
}

TEST(Backend, ToStringNames) {
  EXPECT_STREQ(to_string(Backend::kQuantum), "quantum");
  EXPECT_STREQ(to_string(Backend::kOmniscient), "omniscient");
  EXPECT_STREQ(to_string(Backend::kClassicalShared), "classical-shared");
  EXPECT_STREQ(to_string(Backend::kIndependent), "independent");
}

}  // namespace
}  // namespace ftl::core
