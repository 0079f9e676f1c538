// Correlated decision sources: the paper's envisioned system-level
// abstraction (§1, §5) — "primitives which can be packaged in system-level
// abstractions that systems designers can adopt without needing to
// understand the underlying quantum mechanics".
//
// A PairedDecisionSource models two endpoints that each receive a local
// input bit (e.g. "my task is type-C") and must emit a decision bit (e.g.
// "use the first of our two candidate servers") *without communicating*.
// Implementations range from independent randomness, through classical
// shared randomness, to simulated entangled pairs, up to an omniscient
// oracle that the paper's §5 describes as the testbed "cheat" (it sees both
// inputs, so it upper-bounds what any correlation can achieve).
#pragma once

#include <memory>
#include <string>
#include <utility>

#include "correlate/batched.hpp"
#include "util/rng.hpp"

namespace ftl::correlate {

/// The local input each endpoint observes in the load-balancing game:
/// 1 = my task is type-C (wants co-location), 0 = type-E (wants isolation).
/// The decision bit selects one of two pre-agreed candidate servers.
class PairedDecisionSource {
 public:
  virtual ~PairedDecisionSource() = default;

  /// One round. `x` is endpoint 0's input, `y` endpoint 1's. Honest
  /// implementations must be no-signaling: the marginal distribution of
  /// each side's decision may depend only on that side's input. Only
  /// OmniscientOracle is exempt (and says so).
  [[nodiscard]] virtual std::pair<int, int> decide(int x, int y,
                                                   util::Rng& rng) = 0;

  [[nodiscard]] virtual std::string name() const = 0;

  /// Exact probability that the pair's decisions satisfy the flipped-CHSH
  /// load-balancing condition a XOR b = NOT(x AND y) on the given inputs.
  /// Default implementation estimates nothing — subclasses give the exact
  /// value where available (used in tests/benches).
  [[nodiscard]] virtual double win_probability(int x, int y) const = 0;
};

/// Endpoints decide by independent fair coins (classical random load
/// balancing within the candidate pair).
class IndependentRandomSource final : public PairedDecisionSource {
 public:
  [[nodiscard]] std::pair<int, int> decide(int x, int y,
                                           util::Rng& rng) override;
  [[nodiscard]] std::string name() const override { return "independent"; }
  [[nodiscard]] double win_probability(int x, int y) const override;
};

/// The optimal *classical* strategy for the flipped CHSH game, achievable
/// with pre-agreement alone (win probability 3/4). A shared random bit r is
/// XORed into both outputs to keep each endpoint's marginal uniform (so
/// servers are load-balanced) without changing the correlation.
class ClassicalChshSource final : public PairedDecisionSource {
 public:
  [[nodiscard]] std::pair<int, int> decide(int x, int y,
                                           util::Rng& rng) override;
  [[nodiscard]] std::string name() const override { return "classical-chsh"; }
  [[nodiscard]] double win_probability(int x, int y) const override;
};

/// Simulated entangled pair playing the flipped CHSH game with the
/// Tsirelson-optimal measurement angles; `visibility` < 1 models an
/// imperfect (Werner) pair after SPDC generation, fiber transport, and QNIC
/// storage. Its joint is a fresh qnet::StoredPair's, the model every
/// stored-pair caller uses. Win probability (1/2)(1 + v/sqrt(2)) per input
/// pair.
class ChshSource final : public PairedDecisionSource {
 public:
  explicit ChshSource(double visibility = 1.0);

  [[nodiscard]] std::pair<int, int> decide(int x, int y,
                                           util::Rng& rng) override;
  [[nodiscard]] std::string name() const override;
  [[nodiscard]] double win_probability(int x, int y) const override;
  [[nodiscard]] double visibility() const { return visibility_; }

  /// The precomputed outcome table decide() samples from (exposed so the
  /// sharded engine and tests can batch-draw from the identical table).
  [[nodiscard]] const OutcomeTable& table() const { return table_; }

 private:
  double visibility_;
  /// Born-rule joint distribution P(a,b | x,y) in cumulative form, cached
  /// at construction. Sampling from this table is distribution-identical
  /// to measuring the state.
  OutcomeTable table_;
};

/// A tunable classical mixture: with (shared-randomness) probability
/// `p_same` both endpoints emit the same random bit, otherwise opposite
/// bits. Unlike ClassicalChshSource — which maximises the *game* value but
/// never co-locates a C-C pair — this trades the cases off: it wins the
/// both-C input with probability p_same and every other input with
/// 1 - p_same. The load-balancing benches use it to show that no classical
/// trade-off matches the quantum strategy's uniform 0.854 win profile.
class MixedClassicalSource final : public PairedDecisionSource {
 public:
  explicit MixedClassicalSource(double p_same);

  [[nodiscard]] std::pair<int, int> decide(int x, int y,
                                           util::Rng& rng) override;
  [[nodiscard]] std::string name() const override;
  [[nodiscard]] double win_probability(int x, int y) const override;

 private:
  double p_same_;
};

/// Sees both inputs and always satisfies the co-location condition, with a
/// shared random bit keeping marginals uniform. NOT physically realisable
/// without communication (it would win CHSH with probability 1); exists as
/// the §5 testbed "cheat" and as an upper bound in the benches.
class OmniscientOracleSource final : public PairedDecisionSource {
 public:
  [[nodiscard]] std::pair<int, int> decide(int x, int y,
                                           util::Rng& rng) override;
  [[nodiscard]] std::string name() const override { return "omniscient"; }
  [[nodiscard]] double win_probability(int x, int y) const override;
};

/// Factory helpers.
[[nodiscard]] std::unique_ptr<PairedDecisionSource> make_source(
    const std::string& kind, double visibility = 1.0);

}  // namespace ftl::correlate
