// Property suite: batched measurement-table CHSH sampling is equivalent to
// per-round density-matrix sampling.
//
// The sharded Fig-4 engine draws CHSH outcomes from a precomputed
// correlate::OutcomeTable instead of re-deriving Born-rule probabilities
// per round. These properties pin the equivalence at three levels over
// randomly generated strategies (visibility, storage decoherence):
//   * exact distributions — the table's P(a,b|x,y) equals the strategy's
//     joint_probability entry for entry;
//   * exact sampling — the table maps every uniform draw to the same
//     outcome as the historical inverse-CDF scan, bit for bit, and a batch
//     consumes the RNG stream exactly like sequential single draws;
//   * statistical — chi-square on empirical draws against the Born
//     distribution.
// A last property holds qnet::StoredPair, the closed form of a stored pair's
// statistics, to the density-matrix oracle (Werner state, storage channels,
// Tsirelson-angle measurements).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <sstream>
#include <utility>
#include <vector>

#include "correlate/batched.hpp"
#include "correlate/decision_source.hpp"
#include "games/chsh.hpp"
#include "qcore/channels.hpp"
#include "qcore/density.hpp"
#include "qnet/decoherence.hpp"
#include "util/proptest.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace ftl {
namespace {

using proptest::CaseResult;

/// The historical per-round sampler: lexicographic inverse-CDF scan over
/// the strategy's Born-rule joint distribution (what ChshSource::decide did
/// before the table). Kept here as the reference implementation.
std::pair<int, int> legacy_scan(const games::QuantumStrategy& strategy, int x,
                                int y, double u) {
  double cum = 0.0;
  for (int a = 0; a < 2; ++a) {
    for (int b = 0; b < 2; ++b) {
      cum += strategy.joint_probability(static_cast<std::size_t>(x),
                                        static_cast<std::size_t>(y), a, b);
      if (u < cum) return {a, b};
    }
  }
  return {1, 1};
}

games::QuantumStrategy strategy_for(double visibility) {
  return games::chsh_quantum_strategy(games::chsh_optimal_angles(),
                                      /*flip_bob_output=*/true, visibility);
}

TEST(PropBatchedSampling, TableMatchesBornDistributionExactly) {
  const auto r = proptest::for_all(
      {.name = "table-matches-born", .cases = 60},
      [](util::Rng& rng) { return rng.uniform(); },
      [](const double& visibility) -> CaseResult {
        const games::QuantumStrategy strategy = strategy_for(visibility);
        const auto table = correlate::OutcomeTable::from_strategy(strategy);
        for (int x = 0; x < 2; ++x) {
          for (int y = 0; y < 2; ++y) {
            double total = 0.0;
            for (int a = 0; a < 2; ++a) {
              for (int b = 0; b < 2; ++b) {
                const double want = strategy.joint_probability(
                    static_cast<std::size_t>(x), static_cast<std::size_t>(y),
                    a, b);
                const double got = table.probability(x, y, a, b);
                total += got;
                if (std::abs(want - got) > 1e-9) {
                  std::ostringstream msg;
                  msg << "P(" << a << b << "|" << x << y << ") table " << got
                      << " vs born " << want << " at v=" << visibility;
                  return CaseResult::fail(msg.str());
                }
              }
            }
            if (std::abs(total - 1.0) > 1e-9) {
              return CaseResult::fail("table not normalised");
            }
          }
        }
        return CaseResult::pass();
      });
  ASSERT_TRUE(r.ok) << r.message;
}

TEST(PropBatchedSampling, TableOutcomeMatchesLegacyScanBitForBit) {
  const auto r = proptest::for_all(
      {.name = "table-vs-legacy-scan", .cases = 60},
      [](util::Rng& rng) { return rng.uniform(); },
      [](const double& visibility) -> CaseResult {
        const games::QuantumStrategy strategy = strategy_for(visibility);
        const auto table = correlate::OutcomeTable::from_strategy(strategy);
        util::Rng u_rng(0xab5edULL ^
                        static_cast<std::uint64_t>(visibility * 1e9));
        for (int x = 0; x < 2; ++x) {
          for (int y = 0; y < 2; ++y) {
            for (int i = 0; i < 256; ++i) {
              const double u = u_rng.uniform();
              const auto got = table.outcome(x, y, u);
              const auto want = legacy_scan(strategy, x, y, u);
              if (got != want) {
                std::ostringstream msg;
                msg << "u=" << u << " xy=" << x << y << " table=("
                    << got.first << "," << got.second << ") scan=("
                    << want.first << "," << want.second << ")";
                return CaseResult::fail(msg.str());
              }
            }
          }
        }
        return CaseResult::pass();
      });
  ASSERT_TRUE(r.ok) << r.message;
}

TEST(PropBatchedSampling, DecideDelegatesToTable) {
  // ChshSource::decide and its exposed table consume one uniform per round
  // and agree outcome for outcome when driven by identical streams.
  const auto r = proptest::for_all(
      {.name = "decide-delegates", .cases = 40},
      [](util::Rng& rng) { return rng.uniform(); },
      [](const double& visibility) -> CaseResult {
        correlate::ChshSource source(visibility);
        util::Rng rng_a(7);
        util::Rng rng_b(7);
        for (int i = 0; i < 200; ++i) {
          const int x = i & 1;
          const int y = (i >> 1) & 1;
          const auto via_decide = source.decide(x, y, rng_a);
          const auto via_table = source.table().sample(x, y, rng_b);
          if (via_decide != via_table) {
            return CaseResult::fail("decide and table diverged");
          }
        }
        return CaseResult::pass();
      });
  ASSERT_TRUE(r.ok) << r.message;
}

TEST(PropBatchedSampling, BatchConsumesStreamLikeSequentialDraws) {
  const auto r = proptest::for_all(
      {.name = "batch-vs-sequential", .cases = 40},
      [](util::Rng& rng) {
        struct Input {
          double visibility;
          std::uint64_t seed;
        };
        return Input{rng.uniform(), rng.next_u64()};
      },
      [](const auto& input) -> CaseResult {
        const auto table = correlate::OutcomeTable::from_strategy(
            strategy_for(input.visibility));
        constexpr std::size_t kRounds = 257;
        std::vector<int> xs(kRounds), ys(kRounds);
        util::Rng input_rng(input.seed);
        for (std::size_t i = 0; i < kRounds; ++i) {
          xs[i] = input_rng.bernoulli(0.5) ? 1 : 0;
          ys[i] = input_rng.bernoulli(0.5) ? 1 : 0;
        }
        std::vector<int> as(kRounds), bs(kRounds);
        util::Rng batch_rng(input.seed + 1);
        table.sample_rounds(xs.data(), ys.data(), as.data(), bs.data(),
                            kRounds, batch_rng);
        util::Rng seq_rng(input.seed + 1);
        for (std::size_t i = 0; i < kRounds; ++i) {
          const auto [a, b] = table.sample(xs[i], ys[i], seq_rng);
          if (a != as[i] || b != bs[i]) {
            return CaseResult::fail("batch diverged from sequential at " +
                                    std::to_string(i));
          }
        }
        // Post-call stream states must match too.
        if (batch_rng.next_u64() != seq_rng.next_u64()) {
          return CaseResult::fail("stream state diverged after batch");
        }
        return CaseResult::pass();
      });
  ASSERT_TRUE(r.ok) << r.message;
}

TEST(PropBatchedSampling, ChiSquareAgainstBornDistribution) {
  const auto r = proptest::for_all(
      {.name = "chi-square-draws", .cases = 24},
      [](util::Rng& rng) {
        struct Input {
          double visibility;
          std::uint64_t seed;
        };
        // Visibility bounded away from edge cases where an outcome's
        // probability could underflow an expected count of ~1.
        return Input{0.3 + 0.7 * rng.uniform(), rng.next_u64()};
      },
      [](const auto& input) -> CaseResult {
        const games::QuantumStrategy strategy =
            strategy_for(input.visibility);
        const auto table = correlate::OutcomeTable::from_strategy(strategy);
        util::Rng rng(input.seed);
        constexpr std::size_t kDraws = 8000;
        for (int x = 0; x < 2; ++x) {
          for (int y = 0; y < 2; ++y) {
            std::vector<int> xs(kDraws, x), ys(kDraws, y);
            std::vector<int> as(kDraws), bs(kDraws);
            table.sample_rounds(xs.data(), ys.data(), as.data(), bs.data(),
                                kDraws, rng);
            double counts[4] = {0, 0, 0, 0};
            for (std::size_t i = 0; i < kDraws; ++i) {
              counts[as[i] * 2 + bs[i]] += 1.0;
            }
            double chi2 = 0.0;
            for (int a = 0; a < 2; ++a) {
              for (int b = 0; b < 2; ++b) {
                const double expected =
                    static_cast<double>(kDraws) *
                    strategy.joint_probability(static_cast<std::size_t>(x),
                                               static_cast<std::size_t>(y), a,
                                               b);
                const double diff = counts[a * 2 + b] - expected;
                chi2 += diff * diff / expected;
              }
            }
            // df = 3; 30.66 is the p ~ 1e-6 critical value. The seeds are
            // fixed, so a failure is a real distribution bug, not noise.
            if (chi2 > 30.66) {
              std::ostringstream msg;
              msg << "chi2=" << chi2 << " for xy=" << x << y
                  << " v=" << input.visibility;
              return CaseResult::fail(msg.str());
            }
          }
        }
        return CaseResult::pass();
      });
  ASSERT_TRUE(r.ok) << r.message;
}

struct StoredCase {
  double v0;
  double t1_s;
  double t2_s;
  double age_a_s;
  double age_b_s;
};

/// Bound on the oracle's own error in <X⊗X>. Its dephasing keeps
/// m = e^(t/T1 − 2t/T2) of each half's squared coherence but computes it
/// as 1 − (1 − m), which is off by up to 2.3e-16 and so loses every digit
/// where m is near that size; the closed form has no such cancellation.
double oracle_xx_error(const StoredCase& c) {
  double err = 0.0;
  for (const double t : {c.age_a_s, c.age_b_s}) {
    const double m = std::min(1.0, std::exp(t / c.t1_s - 2.0 * t / c.t2_s));
    err += std::exp(-t / (2.0 * c.t1_s)) *
           std::min(std::sqrt(2.3e-16), 2.3e-16 / (2.0 * std::sqrt(m)));
  }
  return c.v0 * err;
}

TEST(PropBatchedSampling, StoredPairMatchesDensityOracle) {
  const auto r = proptest::for_all(
      {.name = "stored-pair-vs-oracle", .cases = 200},
      [](util::Rng& rng) {
        StoredCase c{};
        c.v0 = rng.uniform();
        c.t1_s = 10e-6 * std::pow(1000.0, rng.uniform());  // 10 us .. 10 ms
        c.t2_s = c.t1_s * rng.uniform(0.05, 2.0);
        c.age_a_s = rng.uniform(0.0, 3.0 * c.t1_s);
        c.age_b_s = rng.uniform(0.0, 3.0 * c.t1_s);
        return c;
      },
      [](const StoredCase& c) -> CaseResult {
        std::ostringstream at;
        at << " at v0=" << c.v0 << " T1=" << c.t1_s << " T2=" << c.t2_s
           << " ages=" << c.age_a_s << "," << c.age_b_s;
        qcore::Density rho = qcore::Density::werner(c.v0);
        const double ages[2] = {c.age_a_s, c.age_b_s};
        for (std::size_t qubit = 0; qubit < 2; ++qubit) {
          for (const auto& ch :
               qcore::storage_decoherence(ages[qubit], c.t1_s, c.t2_s)) {
            rho.apply_channel(ch, qubit);
          }
        }
        if (!rho.is_valid()) {
          return CaseResult::fail("invalid oracle" + at.str());
        }
        const games::QuantumStrategy oracle = games::chsh_strategy_with_state(
            rho, games::chsh_optimal_angles(), /*flip_bob_output=*/true);
        const auto born = [&](int x, int y, int a, int b) {
          return oracle.joint_probability(static_cast<std::size_t>(x),
                                          static_cast<std::size_t>(y), a, b);
        };
        // An endpoint's marginal, summed over its partner's outcomes at
        // each partner input (the oracle is no-signaling, so both agree).
        const auto born_marginal = [&](int endpoint, int input, int outcome,
                                       int partner_input) {
          double p = 0.0;
          for (int o = 0; o < 2; ++o) {
            p += endpoint == 0 ? born(input, partner_input, outcome, o)
                               : born(partner_input, input, o, outcome);
          }
          return p;
        };
        const qnet::StoredPair pair(c.v0, c.age_a_s, c.age_b_s, c.t1_s,
                                    c.t2_s);
        // Entries weight <X⊗X> by at most 1/4, the win by 1/(4 sqrt 2).
        const double joint_tol = 1e-12 + 0.25 * oracle_xx_error(c);
        std::ostringstream msg;
        for (int x = 0; x < 2; ++x) {
          for (int y = 0; y < 2; ++y) {
            for (int a = 0; a < 2; ++a) {
              for (int b = 0; b < 2; ++b) {
                if (std::abs(pair.joint(x, y, a, b) - born(x, y, a, b)) >
                    joint_tol) {
                  msg << "P(" << a << b << "|" << x << y << ") "
                      << pair.joint(x, y, a, b) << " vs oracle "
                      << born(x, y, a, b);
                  return CaseResult::fail(msg.str() + at.str());
                }
              }
            }
          }
        }
        for (int e = 0; e < 2; ++e) {
          for (int in = 0; in < 2; ++in) {
            for (int pin = 0; pin < 2; ++pin) {
              for (int po = 0; po < 2; ++po) {
                const double marginal =
                    po == 1 ? pair.marginal_one(e, in)
                            : 1.0 - pair.marginal_one(e, in);
                if (std::abs(marginal - born_marginal(e, in, po, pin)) >
                    1e-12) {
                  msg << "marginal of endpoint " << e << " input " << in
                      << " outcome " << po;
                  return CaseResult::fail(msg.str() + at.str());
                }
                // P(o | in, partner saw po on pin) for o = 1 and o = 0.
                const double one = pair.conditional_one(e, in, pin, po);
                const double partner = born_marginal(1 - e, pin, po, in);
                const double want_one =
                    (e == 0 ? born(in, pin, 1, po) : born(pin, in, po, 1)) /
                    partner;
                const double want_zero =
                    (e == 0 ? born(in, pin, 0, po) : born(pin, in, po, 0)) /
                    partner;
                const double tol = 1e-9 + joint_tol / partner;
                if (std::abs(one - want_one) > tol ||
                    std::abs((1.0 - one) - want_zero) > tol) {
                  msg << "conditional of endpoint " << e << " input " << in
                      << " given " << pin << "->" << po << ": " << one
                      << " vs oracle " << want_one;
                  return CaseResult::fail(msg.str() + at.str());
                }
              }
            }
          }
        }
        const double win = oracle.value(games::chsh_game(/*flipped=*/true));
        const double win_tol =
            1e-12 + oracle_xx_error(c) / (4.0 * std::sqrt(2.0));
        if (std::abs(pair.win_probability() - win) > win_tol ||
            std::abs(qnet::chsh_win_after_storage(c.v0, c.age_a_s, c.age_b_s,
                                                  c.t1_s, c.t2_s) -
                     win) > win_tol) {
          msg << "win " << pair.win_probability() << " vs oracle " << win;
          return CaseResult::fail(msg.str() + at.str());
        }

        // The storage window is the unique crossing of 0.75.
        const auto win_at = [&](double t) {
          return qnet::chsh_win_after_storage(c.v0, t, t, c.t1_s, c.t2_s);
        };
        const double window =
            qnet::useful_storage_window_s(c.v0, c.t1_s, c.t2_s);
        if (win_at(0.0) <= 0.75 + 1e-12) {
          return window == 0.0
                     ? CaseResult::pass()
                     : CaseResult::fail("window of a useless pair" + at.str());
        }
        if (std::abs(win_at(window) - 0.75) > 1e-12) {
          msg << "win at the window " << win_at(window);
          return CaseResult::fail(msg.str() + at.str());
        }
        // 0.1% inside and outside the window the win lies clearly on either
        // side of 0.75, unless even a fresh pair barely beats it.
        if (win_at(0.0) > 0.75 + 1e-6 &&
            !(win_at(window * (1.0 - 1e-3)) > 0.75 &&
              win_at(window * (1.0 + 1e-3)) < 0.75)) {
          msg << "win does not cross 0.75 at the window " << window;
          return CaseResult::fail(msg.str() + at.str());
        }
        return CaseResult::pass();
      });
  ASSERT_TRUE(r.ok) << r.message;
}

}  // namespace
}  // namespace ftl
