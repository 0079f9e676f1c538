#include "ecmp/simulator.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <sstream>
#include <string>
#include <vector>

#include "ecmp/no_signaling.hpp"
#include "ecmp/strategies.hpp"
#include "qcore/gates.hpp"
#include "qcore/generators.hpp"
#include "util/proptest.hpp"
#include "util/rng.hpp"

namespace ftl::ecmp {
namespace {

TEST(SharedPartition, CollisionFormula) {
  // N=4, M=2: groups 2+2, P = (2*2*1)/(4*3) = 1/3.
  EXPECT_NEAR(SharedPartition::pair_collision_probability(4, 2), 1.0 / 3.0,
              1e-12);
  // N=3, M=2: groups 2+1, P = 2/(3*2) = 1/3.
  EXPECT_NEAR(SharedPartition::pair_collision_probability(3, 2), 1.0 / 3.0,
              1e-12);
  // N=M: perfect assignment, no collisions.
  EXPECT_NEAR(SharedPartition::pair_collision_probability(4, 4), 0.0, 1e-12);
  // N=6, M=3: groups of 2, P = 3*2/(6*5) = 0.2.
  EXPECT_NEAR(SharedPartition::pair_collision_probability(6, 3), 0.2, 1e-12);
}

TEST(IndependentUniform, SimulatedCollisionMatchesOneOverM) {
  IndependentUniform strat(6, 3);
  EcmpConfig cfg;
  cfg.active = 2;
  cfg.rounds = 60000;
  const EcmpResult r = run_ecmp_sim(cfg, strat);
  EXPECT_NEAR(r.mean_collisions, 1.0 / 3.0, 0.01);
}

TEST(SharedPartitionSim, MatchesClosedForm) {
  SharedPartition strat(4, 2);
  EcmpConfig cfg;
  cfg.active = 2;
  cfg.rounds = 60000;
  const EcmpResult r = run_ecmp_sim(cfg, strat);
  EXPECT_NEAR(r.mean_collisions,
              SharedPartition::pair_collision_probability(4, 2), 0.01);
}

TEST(SharedPartitionSim, BeatsIndependentRandom) {
  EcmpConfig cfg;
  cfg.active = 2;
  cfg.rounds = 40000;
  IndependentUniform ind(4, 2);
  SharedPartition part(4, 2);
  EXPECT_LT(run_ecmp_sim(cfg, part).mean_collisions,
            run_ecmp_sim(cfg, ind).mean_collisions);
}

TEST(SharedPartitionSim, PerfectWhenAllFit) {
  SharedPartition strat(4, 4);
  EcmpConfig cfg;
  cfg.active = 3;
  cfg.rounds = 5000;
  const EcmpResult r = run_ecmp_sim(cfg, strat);
  EXPECT_DOUBLE_EQ(r.mean_collisions, 0.0);
  EXPECT_DOUBLE_EQ(r.p_collision_free, 1.0);
  EXPECT_DOUBLE_EQ(r.path_spread, 1.0);
}

/// `state` measured by switch k in the real basis at angles[k].
LocalMeasurements at_angles(const std::string& name,
                            const qcore::StateVec& state,
                            const std::vector<double>& angles) {
  std::vector<qcore::CMat> bases;
  for (double a : angles) bases.push_back(qcore::gates::real_basis(a));
  return LocalMeasurements(name, state, bases);
}

TEST(GhzMeasurements, PairCollisionMatchesClassicalMixtureFormula) {
  // GHZ(n>=3) reduced pairs are (|00><00| + |11><11|)/2, so
  // P(same) = c_i c_j + (1-c_i)(1-c_j) with c = cos^2(theta).
  const std::vector<double> angles{0.3, 1.1, 0.7};
  const auto strat = at_angles("ghz", qcore::StateVec::ghz(3), angles);
  for (std::size_t i = 0; i < 3; ++i) {
    for (std::size_t j = i + 1; j < 3; ++j) {
      const double ci = std::cos(angles[i]) * std::cos(angles[i]);
      const double cj = std::cos(angles[j]) * std::cos(angles[j]);
      EXPECT_NEAR(strat.pair_collision_probability(i, j),
                  ci * cj + (1.0 - ci) * (1.0 - cj), 1e-9);
    }
  }
}

TEST(GhzMeasurements, SampledCollisionsMatchExact) {
  auto strat = at_angles("ghz", qcore::StateVec::ghz(3),
                         {0.0, M_PI / 2.0, M_PI / 4.0});
  EcmpConfig cfg;
  cfg.active = 2;
  cfg.rounds = 40000;
  const EcmpResult r = run_ecmp_sim(cfg, strat);
  EXPECT_NEAR(r.mean_collisions, strat.mean_pair_collision(), 0.01);
}

TEST(GhzMeasurements, BestHandPickedMatchesPartitionBound) {
  // Angles {0, pi/2, pi/4}: deterministic anti-correlated pair plus a
  // hedger: mean collision (0 + 1/2 + 1/2)/3 = 1/3 — exactly classical.
  const auto strat = at_angles("ghz", qcore::StateVec::ghz(3),
                               {0.0, M_PI / 2.0, M_PI / 4.0});
  EXPECT_NEAR(strat.mean_pair_collision(), 1.0 / 3.0, 1e-9);
}

TEST(GhzMeasurements, AlternatingAnglesAttainTheBound) {
  // Angle 0 reads GHZ's shared bit and pi/2 its complement, so alternating
  // switches form the balanced partition and the shared bit picks which
  // half takes path 0.
  for (std::size_t n = 3; n <= 8; ++n) {
    std::vector<double> angles(n, 0.0);
    for (std::size_t k = 1; k < n; k += 2) angles[k] = M_PI / 2.0;
    const auto strat = at_angles("ghz", qcore::StateVec::ghz(n), angles);
    EXPECT_NEAR(strat.mean_pair_collision(),
                SharedPartition::pair_collision_probability(n, 2), 1e-12)
        << "n=" << n;
  }
}

TEST(WMeasurements, WStateIsCorrectlyBuilt) {
  const auto w = w_state(3);
  EXPECT_NEAR(std::abs(w.amplitude(0b100)), 1.0 / std::sqrt(3.0), 1e-12);
  EXPECT_NEAR(std::abs(w.amplitude(0b010)), 1.0 / std::sqrt(3.0), 1e-12);
  EXPECT_NEAR(std::abs(w.amplitude(0b001)), 1.0 / std::sqrt(3.0), 1e-12);
  EXPECT_NEAR(std::abs(w.amplitude(0b000)), 0.0, 1e-12);
  EXPECT_NEAR(w.norm(), 1.0, 1e-12);
}

TEST(WMeasurements, ComputationalBasisAntiCorrelates) {
  // Measuring W(3) in the computational basis: exactly one switch outputs
  // 1, so a random active pair collides iff both read 0: P = 1/3.
  const auto strat = at_angles("w", w_state(3), {0.0, 0.0, 0.0});
  EXPECT_NEAR(strat.mean_pair_collision(), 1.0 / 3.0, 1e-9);
}

TEST(WMeasurements, SampledMatchesExact) {
  auto strat = at_angles("w", w_state(3), {0.4, 1.0, 2.0});
  EcmpConfig cfg;
  cfg.active = 2;
  cfg.rounds = 40000;
  const EcmpResult r = run_ecmp_sim(cfg, strat);
  EXPECT_NEAR(r.mean_collisions, strat.mean_pair_collision(), 0.01);
}

// ---- input-free switches (THEORY §8) ---------------------------------------

TEST(InputFree, NoStateOrBasisBeatsThePartition) {
  // Haar-random states on 2..8 qubits, each switch measuring in its own
  // Haar-random basis. For N <= 5 every pair collision is checked against
  // the density-matrix oracle joint_ab; for every N the mean collision
  // must not fall below the balanced partition.
  struct Case {
    qcore::StateVec state;
    std::vector<qcore::CMat> bases;
  };
  proptest::Options opts;
  opts.name = "InputFree.NoStateOrBasisBeatsThePartition";
  opts.cases = 240;
  const auto r = proptest::for_all(
      opts,
      [](util::Rng& rng) {
        const std::size_t n = 2 + rng.uniform_int(7);
        Case c{qcore::random_state(n, rng), {}};
        for (std::size_t k = 0; k < n; ++k) {
          c.bases.push_back(qcore::random_unitary(2, rng));
        }
        return c;
      },
      [](const Case& c) {
        const std::size_t n = c.state.num_qubits();
        const LocalMeasurements strat("random", c.state, c.bases);
        if (n <= 5) {
          const auto rho = qcore::Density::from_state(c.state);
          for (std::size_t i = 0; i < n; ++i) {
            for (std::size_t j = i + 1; j < n; ++j) {
              const auto oracle = joint_ab(rho, i, c.bases[i], j, c.bases[j]);
              const double want = oracle[0][0] + oracle[1][1];
              const double got = strat.pair_collision_probability(i, j);
              if (std::abs(got - want) > 1e-12) {
                std::ostringstream note;
                note << "n=" << n << " pair (" << i << "," << j
                     << "): joint " << got << " vs joint_ab " << want;
                return proptest::CaseResult::fail(note.str());
              }
            }
          }
        }
        const double bound = SharedPartition::pair_collision_probability(n, 2);
        if (strat.mean_pair_collision() < bound - 1e-12) {
          std::ostringstream note;
          note << "n=" << n << ": mean " << strat.mean_pair_collision()
               << " below the partition's " << bound;
          return proptest::CaseResult::fail(note.str());
        }
        return proptest::CaseResult::pass();
      });
  ASSERT_TRUE(r.ok) << r.message;
}

TEST(InputFree, DeterministicOptimumIsTheBalancedPartition) {
  // The minimum over all M^N deterministic path assignments of the number
  // of colliding ordered pairs, against the partition's closed form.
  for (std::size_t n = 2; n <= 8; ++n) {
    for (std::size_t m = 2; m <= 4; ++m) {
      std::vector<std::size_t> a(n, 0);
      std::size_t best = n * (n - 1);
      for (;;) {
        std::size_t same = 0;
        for (std::size_t i = 0; i < n; ++i) {
          for (std::size_t j = 0; j < n; ++j) same += i != j && a[i] == a[j];
        }
        best = std::min(best, same);
        std::size_t k = 0;
        while (k < n && ++a[k] == m) a[k++] = 0;
        if (k == n) break;
      }
      EXPECT_EQ(static_cast<double>(best) / static_cast<double>(n * (n - 1)),
                SharedPartition::pair_collision_probability(n, m))
          << "n=" << n << " m=" << m;
    }
  }
}

TEST(PairedSinglets, PerfectAntiCorrelationWithinPair) {
  PairedSinglets strat(4);
  util::Rng rng(3);
  std::vector<std::size_t> out;
  for (int i = 0; i < 200; ++i) {
    strat.choose(out, rng);
    EXPECT_NE(out[0], out[1]);
    EXPECT_NE(out[2], out[3]);
  }
}

TEST(PairedSinglets, MatchesSingletStateSimulation) {
  // Verify the shortcut sampling against an actual singlet measured in the
  // same basis on both sides: outcomes always differ.
  util::Rng rng(4);
  const qcore::CMat basis = qcore::gates::real_basis(0.77);
  for (int i = 0; i < 200; ++i) {
    // Singlet (|01> - |10>)/sqrt2.
    const double r = 1.0 / std::sqrt(2.0);
    auto psi = qcore::StateVec::from_amplitudes(
        {qcore::Cx{0, 0}, qcore::Cx{r, 0}, qcore::Cx{-r, 0}, qcore::Cx{0, 0}});
    const int a = psi.measure(0, basis, rng);
    const int b = psi.measure(1, basis, rng);
    EXPECT_NE(a, b);
  }
}

TEST(PairedSinglets, CrossPairCollisionsAreRandom) {
  PairedSinglets strat(4);
  EcmpConfig cfg;
  cfg.active = 2;
  cfg.rounds = 60000;
  const EcmpResult r = run_ecmp_sim(cfg, strat);
  // Of the C(4,2) = 6 possible active pairs, 2 are within a singlet pair
  // (never collide) and 4 are cross-pair (collide w.p. 1/2): mean = 1/3 —
  // exactly the classical partition bound, not below it. Monogamy of
  // entanglement in action.
  EXPECT_NEAR(r.mean_collisions, 1.0 / 3.0, 0.01);
}

// ---- no-signaling reduction ------------------------------------------------

class NoSignalingSweep : public ::testing::TestWithParam<double> {};

TEST_P(NoSignalingSweep, CDoesNotInfluenceABJoint) {
  const double theta_c = GetParam();
  const auto rho = qcore::Density::from_state(qcore::StateVec::ghz(3));
  const auto ba = qcore::gates::real_basis(0.4);
  const auto bb = qcore::gates::real_basis(1.0);
  const auto bc = qcore::gates::real_basis(theta_c);
  EXPECT_LT(no_signaling_deviation(rho, 0, ba, 1, bb, 2, bc), 1e-10);
}

INSTANTIATE_TEST_SUITE_P(AnglesOfC, NoSignalingSweep,
                         ::testing::Values(0.0, 0.3, M_PI / 4.0, 1.2,
                                           M_PI / 2.0, 2.5));

TEST(NoSignaling, HoldsForWStateToo) {
  // W = (|001> + |010> + |100>)/sqrt3 — not GHZ; reduction still holds.
  const double r = 1.0 / std::sqrt(3.0);
  std::vector<qcore::Cx> amps(8, qcore::Cx{0, 0});
  amps[1] = amps[2] = amps[4] = qcore::Cx{r, 0};
  const auto rho =
      qcore::Density::from_state(qcore::StateVec::from_amplitudes(amps));
  const auto basis = qcore::gates::real_basis(0.9);
  EXPECT_LT(no_signaling_deviation(rho, 0, basis, 1, basis, 2,
                                   qcore::gates::real_basis(0.2)),
            1e-10);
}

TEST(NoSignaling, JointDistributionsAreNormalised) {
  const auto rho = qcore::Density::from_state(qcore::StateVec::ghz(3));
  const auto basis = qcore::gates::real_basis(0.6);
  const auto j = joint_ab(rho, 0, basis, 1, basis);
  double total = 0.0;
  for (const auto& row : j) {
    for (double p : row) {
      EXPECT_GE(p, -1e-12);
      total += p;
    }
  }
  EXPECT_NEAR(total, 1.0, 1e-10);
}

TEST(Reduction, EnsembleIsValidAndComplete) {
  const auto rho = qcore::Density::from_state(qcore::StateVec::ghz(3));
  const auto ensemble =
      reduce_by_measuring(rho, 2, qcore::gates::real_basis(0.8));
  double total_p = 0.0;
  for (const auto& [p, state] : ensemble) {
    EXPECT_GT(p, 0.0);
    EXPECT_EQ(state.num_qubits(), 2u);
    EXPECT_TRUE(state.is_valid(1e-7));
    total_p += p;
  }
  EXPECT_NEAR(total_p, 1.0, 1e-10);
}

TEST(Reduction, MixtureReproducesMarginal) {
  // Averaging the ensemble must equal the partial trace: the constructive
  // form of "C may as well measure in advance".
  const auto rho = qcore::Density::from_state(qcore::StateVec::ghz(3));
  const auto basis_c = qcore::gates::real_basis(1.3);
  const auto ensemble = reduce_by_measuring(rho, 2, basis_c);
  qcore::CMat avg(4, 4);
  for (const auto& [p, state] : ensemble) {
    avg += state.matrix() * qcore::Cx{p, 0.0};
  }
  const auto traced = rho.partial_trace({2});
  EXPECT_TRUE(avg.approx_equal(traced.matrix(), 1e-10));
}

TEST(Simulator, ActiveSubsetBounds) {
  IndependentUniform strat(5, 3);
  EcmpConfig cfg;
  cfg.active = 5;  // everyone active
  cfg.rounds = 1000;
  const EcmpResult r = run_ecmp_sim(cfg, strat);
  // 5 switches on 3 paths: pigeonhole forces at least one collision.
  EXPECT_DOUBLE_EQ(r.p_collision_free, 0.0);
  EXPECT_GE(r.mean_collisions, 1.0);
}

}  // namespace
}  // namespace ftl::ecmp
