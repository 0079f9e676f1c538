// ECMP path-selection strategies (§4.2).
//
// N switches share M < N equal-cost paths. Each round an unknown subset of
// switches is active; every switch must pick a path with no knowledge of
// who else is active and no communication. Strategies may pre-share
// randomness (classical) or entanglement (quantum). Collisions are active
// switches choosing the same path.
//
// The paper proves that entangling *inactive* switches cannot help (the
// no-signaling reduction, see no_signaling.hpp) and conjectures no quantum
// advantage at all. Here a switch gets no input, so any entangled strategy
// is one fixed measurement per switch: LocalMeasurements computes the
// joint distribution that yields, and THEORY §8 ("Input-free switches")
// proves that no such joint beats the balanced partition.
#pragma once

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "qcore/state.hpp"
#include "util/rng.hpp"

namespace ftl::ecmp {

class EcmpStrategy {
 public:
  virtual ~EcmpStrategy() = default;

  [[nodiscard]] virtual std::string name() const = 0;
  [[nodiscard]] virtual std::size_t num_switches() const = 0;
  [[nodiscard]] virtual std::size_t num_paths() const = 0;

  /// One round: every switch (active or not — nobody knows) commits to a
  /// path. `out[i]` is switch i's path.
  virtual void choose(std::vector<std::size_t>& out, util::Rng& rng) = 0;
};

/// Every switch picks an independent uniform path (classical baseline;
/// per-pair collision probability 1/M).
class IndependentUniform final : public EcmpStrategy {
 public:
  IndependentUniform(std::size_t n, std::size_t m);
  [[nodiscard]] std::string name() const override { return "independent"; }
  [[nodiscard]] std::size_t num_switches() const override { return n_; }
  [[nodiscard]] std::size_t num_paths() const override { return m_; }
  void choose(std::vector<std::size_t>& out, util::Rng& rng) override;

 private:
  std::size_t n_;
  std::size_t m_;
};

/// Optimal classical shared-randomness scheme: a fresh random balanced
/// partition of switches into the M paths each round. For a uniformly
/// random active pair the collision probability is
/// sum_g g_i(g_i - 1) / (N(N-1)) — e.g. 1/3 for N=4, M=2.
class SharedPartition final : public EcmpStrategy {
 public:
  SharedPartition(std::size_t n, std::size_t m);
  [[nodiscard]] std::string name() const override { return "shared-partition"; }
  [[nodiscard]] std::size_t num_switches() const override { return n_; }
  [[nodiscard]] std::size_t num_paths() const override { return m_; }
  void choose(std::vector<std::size_t>& out, util::Rng& rng) override;

  /// Closed-form per-random-pair collision probability of the balanced
  /// partition.
  [[nodiscard]] static double pair_collision_probability(std::size_t n,
                                                         std::size_t m);

 private:
  std::size_t n_;
  std::size_t m_;
  std::vector<std::size_t> assignment_;
};

/// An input-free entangled strategy over M = 2 paths: switch k measures
/// qubit k of `state` in the fixed basis `bases[k]` (basis vectors in the
/// columns, as joint_ab takes them) and takes path 0 or 1 by its outcome.
/// Fixed measurements give one joint distribution over all 2^N path
/// strings; it is computed once, a round samples it with one uniform, and
/// every collision probability is a sum over it (THEORY §8).
class LocalMeasurements final : public EcmpStrategy {
 public:
  /// `state` holds one qubit per switch, 2..12 switches; each basis is a
  /// 2x2 unitary.
  LocalMeasurements(std::string name, const qcore::StateVec& state,
                    const std::vector<qcore::CMat>& bases);
  [[nodiscard]] std::string name() const override { return name_; }
  [[nodiscard]] std::size_t num_switches() const override { return n_; }
  [[nodiscard]] std::size_t num_paths() const override { return 2; }
  void choose(std::vector<std::size_t>& out, util::Rng& rng) override;

  /// Exact P(switch i and switch j take the same path).
  [[nodiscard]] double pair_collision_probability(std::size_t i,
                                                  std::size_t j) const;

  /// Average of pair_collision_probability over all unordered pairs — the
  /// collision rate seen by a uniformly random active pair.
  [[nodiscard]] double mean_pair_collision() const;

 private:
  std::string name_;
  std::size_t n_;
  std::vector<double> joint_;  // P(path string s), s in [0, 2^N)
  /// cum_[s] = P(path string <= s) for all but the last string, which
  /// absorbs the remaining mass including fp round-off.
  std::vector<double> cum_;
};

/// The W state (|10...0> + |01...0> + ... + |0...01>)/sqrt(n).
[[nodiscard]] qcore::StateVec w_state(std::size_t n);

/// Switches are pre-paired; each pair shares a singlet measured in the same
/// basis, producing perfectly anti-correlated path bits (M = 2). Across
/// pairs, outcomes are independent. This is the strongest pairwise-
/// entanglement scheme for M = 2 and it exactly matches (not beats) the
/// classical partition — monogamy of entanglement prevents more.
class PairedSinglets final : public EcmpStrategy {
 public:
  explicit PairedSinglets(std::size_t n);
  [[nodiscard]] std::string name() const override { return "paired-singlets"; }
  [[nodiscard]] std::size_t num_switches() const override { return n_; }
  [[nodiscard]] std::size_t num_paths() const override { return 2; }
  void choose(std::vector<std::size_t>& out, util::Rng& rng) override;

 private:
  std::size_t n_;
};

}  // namespace ftl::ecmp
