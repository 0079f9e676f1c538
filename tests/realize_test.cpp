#include "games/realize.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>

#include "games/affinity.hpp"
#include "qcore/gates.hpp"
#include "util/rng.hpp"

namespace ftl {
namespace {

using qcore::Cx;
using qcore::PauliSum;
using qcore::PauliTerm;
using qcore::StateVec;

// ---- PauliSum ---------------------------------------------------------------

TEST(PauliSum, SingleXActsLikeGate) {
  StateVec psi(2);
  psi.apply1(qcore::gates::Ry(0.7), 0);
  psi.apply1(qcore::gates::Ry(1.3), 1);
  StateVec expect = psi;
  expect.apply1(qcore::gates::X(), 1);
  const PauliSum op({PauliTerm{1.0, "IX"}});
  const auto out = op.apply(psi);
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_NEAR(std::abs(out[i] - expect.amplitude(i)), 0.0, 1e-12);
  }
}

TEST(PauliSum, YPhasesAreCorrect) {
  StateVec psi(1);  // |0>
  const PauliSum y({PauliTerm{1.0, "Y"}});
  const auto out = y.apply(psi);
  EXPECT_NEAR(std::abs(out[1] - Cx{0.0, 1.0}), 0.0, 1e-12);  // Y|0> = i|1>
  StateVec one(1);
  one.apply1(qcore::gates::X(), 0);
  const auto out1 = y.apply(one);
  EXPECT_NEAR(std::abs(out1[0] - Cx{0.0, -1.0}), 0.0, 1e-12);
}

TEST(PauliSum, ZzExpectationOnBell) {
  const auto bell = StateVec::bell_phi_plus();
  EXPECT_NEAR(PauliSum({PauliTerm{1.0, "ZZ"}}).expectation(bell), 1.0, 1e-12);
  EXPECT_NEAR(PauliSum({PauliTerm{1.0, "XX"}}).expectation(bell), 1.0, 1e-12);
  EXPECT_NEAR(PauliSum({PauliTerm{1.0, "YY"}}).expectation(bell), -1.0,
              1e-12);
  EXPECT_NEAR(PauliSum({PauliTerm{1.0, "ZI"}}).expectation(bell), 0.0, 1e-12);
}

TEST(PauliSum, SumOfAnticommutingStringsIsInvolution) {
  // (a X + b Z)^2 = (a^2 + b^2) I.
  const double a = 0.6;
  const double b = 0.8;
  const PauliSum op({PauliTerm{a, "XI"}, PauliTerm{b, "ZI"}});
  StateVec psi = StateVec::bell_phi_plus();
  EXPECT_TRUE(op.squares_to_identity_on(psi));
}

TEST(PauliSum, NonInvolutionDetected) {
  const PauliSum op({PauliTerm{1.0, "XI"}, PauliTerm{1.0, "ZI"}});  // norm 2
  StateVec psi = StateVec::bell_phi_plus();
  EXPECT_FALSE(op.squares_to_identity_on(psi));
}

TEST(PauliSum, MeasurementStatisticsMatchExpectation) {
  const PauliSum op({PauliTerm{0.6, "XI"}, PauliTerm{0.8, "ZI"}});
  StateVec psi(2);
  psi.apply1(qcore::gates::Ry(0.9), 0);
  const double e = op.expectation(psi);
  util::Rng rng(5);
  int plus = 0;
  const int n = 40000;
  for (int i = 0; i < n; ++i) {
    StateVec copy = psi;
    if (op.measure(copy, rng) > 0) ++plus;
  }
  EXPECT_NEAR(static_cast<double>(plus) / n, 0.5 * (1.0 + e), 0.01);
}

TEST(PauliSum, MeasurementCollapsesRepeatably) {
  const PauliSum op({PauliTerm{1.0, "XX"}});
  util::Rng rng(6);
  StateVec psi = StateVec::bell_phi_plus();
  const int first = op.measure(psi, rng);
  for (int i = 0; i < 5; ++i) EXPECT_EQ(op.measure(psi, rng), first);
}

// ---- Tsirelson realization --------------------------------------------------

TEST(Realize, ChshReducesToOneQubitPerParty) {
  const auto game = games::XorGame::chsh();
  const auto strat = games::realize_optimal_strategy(game);
  EXPECT_EQ(strat.qubits_per_party(), 1u);
  EXPECT_NEAR(strat.value(), 0.5 + 0.25 * std::sqrt(2.0), 1e-6);
}

TEST(Realize, CorrelatorsMatchVectorInnerProducts) {
  const auto game = games::XorGame::chsh();
  const auto vectors = game.quantum_bias();
  const games::RealizedXorStrategy strat(game, vectors);
  for (std::size_t x = 0; x < 2; ++x) {
    for (std::size_t y = 0; y < 2; ++y) {
      double dot = 0.0;
      for (std::size_t k = 0; k < vectors.alice[x].size(); ++k) {
        dot += vectors.alice[x][k] * vectors.bob[y][k];
      }
      EXPECT_NEAR(strat.correlator(x, y), dot, 1e-9)
          << "x=" << x << " y=" << y;
    }
  }
}

TEST(Realize, PentagonGameAchievesSdpValue) {
  games::AffinityGraph g(5);
  for (std::size_t i = 0; i < 5; ++i) {
    g.set(i, (i + 1) % 5, games::Affinity::kExclusive);
  }
  const auto game = games::XorGame::from_affinity(g);
  const auto vectors = game.quantum_bias();
  const games::RealizedXorStrategy strat(game, vectors);
  EXPECT_NEAR(strat.value(), (1.0 + vectors.bias) / 2.0, 1e-8);
  EXPECT_GT(strat.value(), game.classical_value() + 0.01);
  EXPECT_LE(strat.qubits_per_party(), 3u);
}

TEST(Realize, SampledPlayMatchesExactValue) {
  const auto game = games::XorGame::chsh();
  const auto strat = games::realize_optimal_strategy(game);
  util::Rng rng(7);
  int wins = 0;
  const int n = 30000;
  for (int i = 0; i < n; ++i) {
    const std::size_t x = rng.uniform_int(2);
    const std::size_t y = rng.uniform_int(2);
    const auto [a, b] = strat.play(x, y, rng);
    if ((a ^ b) == game.f(x, y)) ++wins;
  }
  EXPECT_NEAR(static_cast<double>(wins) / n, strat.value(), 0.01);
}

TEST(Realize, MarginalsAreUniform) {
  const auto game = games::XorGame::chsh();
  const auto strat = games::realize_optimal_strategy(game);
  util::Rng rng(8);
  int ones = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    ones += strat.play(1, 0, rng).first;
  }
  EXPECT_NEAR(static_cast<double>(ones) / n, 0.5, 0.015);
}

TEST(Realize, RandomAffinityGamesRealizeTheirSdpValues) {
  util::Rng rng(9);
  for (int trial = 0; trial < 3; ++trial) {
    const auto g = games::AffinityGraph::random(4, 0.5, rng);
    const auto game = games::XorGame::from_affinity(g);
    sdp::GramOptions opts;
    opts.restarts = 8;
    const auto vectors = game.quantum_bias(opts);
    const games::RealizedXorStrategy strat(game, vectors);
    EXPECT_NEAR(strat.value(), (1.0 + vectors.bias) / 2.0, 1e-7)
        << "trial " << trial;
  }
}

// Sum of squared Pauli coefficients: an observable sum_m c_m gamma_m squares
// to this times the identity.
double squared_norm(const PauliSum& op) {
  double sum = 0.0;
  for (const PauliTerm& t : op.terms()) sum += t.coefficient * t.coefficient;
  return sum;
}

// Six-type games whose Tsirelson vectors once reduced to noise directions:
// the observables lost unit norm, and the first play() aborted. The noise
// also cost qubits: the realisation needs 2 and 1 per party.
TEST(Realize, SixTypeGamesKeepUnitObservables) {
  struct Case {
    double p;
    std::uint64_t seed;
    std::size_t qubits;
  };
  for (const Case& c : {Case{0.1, 3, 2}, Case{0.5, 22, 1}}) {
    SCOPED_TRACE(testing::Message() << "p=" << c.p << " seed=" << c.seed);
    util::Rng rng(c.seed);
    const auto game = games::XorGame::from_affinity(
        games::AffinityGraph::random(6, c.p, rng));
    sdp::GramOptions opts;
    opts.restarts = 12;
    const auto vectors = game.quantum_bias(opts);
    const games::RealizedXorStrategy strat(game, vectors);
    EXPECT_EQ(strat.qubits_per_party(), c.qubits);
    const auto phi = strat.shared_state();
    for (std::size_t i = 0; i < 6; ++i) {
      for (const PauliSum* op :
           {&strat.alice_observable(i), &strat.bob_observable(i)}) {
        EXPECT_TRUE(op->squares_to_identity_on(phi)) << "input " << i;
        EXPECT_NEAR(squared_norm(*op), 1.0, 1e-14) << "input " << i;
      }
    }
    EXPECT_NEAR(strat.value(), (1.0 + vectors.bias) / 2.0, 1e-9);
  }
}

TEST(Realize, ObservablesSquareToIdentity) {
  const auto game = games::XorGame::chsh();
  const auto strat = games::realize_optimal_strategy(game);
  const auto phi = strat.shared_state();
  for (std::size_t x = 0; x < 2; ++x) {
    EXPECT_TRUE(strat.alice_observable(x).squares_to_identity_on(phi));
    EXPECT_TRUE(strat.bob_observable(x).squares_to_identity_on(phi));
  }
}

}  // namespace
}  // namespace ftl
