// Effect of QNIC storage on the usefulness of a stored Bell pair.
//
// While a pair waits in memory for an input to arrive (Figure 2), each half
// decoheres with its memory's T1/T2. StoredPair is the closed form of the
// stored pair's CHSH statistics (THEORY.md, "Stored pairs"); the post-storage
// win, the storage window and the serving path's win table are built on it.
// The density-matrix path in qcore/games is its test oracle.
#pragma once

#include <cstddef>
#include <vector>

namespace ftl::qnet {

/// A visibility-v0 Werner pair whose halves (endpoint 0 = Alice, 1 = Bob)
/// waited age_a_s and age_b_s in memories with the given T1/T2 (the channel
/// of qcore::storage_decoherence), measured at the Tsirelson angles with
/// Bob's outcome labels swapped for the flipped game.
class StoredPair {
 public:
  /// Requires 0 <= v0 <= 1, ages >= 0, T1 > 0, T2 > 0 and T2 <= 2 T1.
  StoredPair(double v0, double age_a_s, double age_b_s, double t1_s,
             double t2_s);

  /// P(a, b | x, y).
  [[nodiscard]] double joint(int x, int y, int a, int b) const;
  /// P(endpoint outputs 1 | input), whatever its partner does.
  [[nodiscard]] double marginal_one(int endpoint, int input) const;
  /// The same once the partner measured partner_input and saw
  /// partner_outcome.
  [[nodiscard]] double conditional_one(int endpoint, int input,
                                       int partner_input,
                                       int partner_outcome) const;
  /// Win probability of the flipped game with uniform inputs.
  [[nodiscard]] double win_probability() const;

 private:
  double z_[2];  ///< <Z> of each half
  double t_zz_;  ///< <Z⊗Z>
  double t_xx_;  ///< <X⊗X> = −<Y⊗Y>
};

/// Win probability of the flipped-CHSH load-balancing game using the
/// Tsirelson-optimal angles on the post-storage state. Classical baseline
/// is 0.75; values below it mean the stored pair is no longer useful.
[[nodiscard]] double chsh_win_after_storage(double v0, double storage_a_s,
                                            double storage_b_s, double t1_s,
                                            double t2_s);

/// Longest storage time (applied to both halves) at which the pair still
/// beats the classical 0.75, found by bisection; returns 0 if even fresh
/// pairs lose (v0 too small).
[[nodiscard]] double useful_storage_window_s(double v0, double t1_s,
                                             double t2_s);

/// Piecewise-linear lookup of the post-storage CHSH win probability (both
/// halves stored for `age` seconds) on 129 knots of the closed form, built
/// once per broker. The batch simulate_pair_supply and the serving-path
/// LiveBroker grade the ages their qnet::PairPool returns with it: a lookup
/// costs a few ns, the closed form's exp() calls several times that.
class WinCurve {
 public:
  WinCurve(double v0, double t1_s, double t2_s, double max_age_s);

  /// Win probability for a pair stored `age` seconds (clamped to the
  /// sampled range; ages past max_age_s return the terminal value).
  [[nodiscard]] double at(double age) const {
    if (age <= 0.0) return wins_.front();
    if (age >= max_age_) return wins_.back();
    const double pos = age / max_age_ * static_cast<double>(wins_.size() - 1);
    const auto lo = static_cast<std::size_t>(pos);
    const double frac = pos - static_cast<double>(lo);
    return wins_[lo] * (1.0 - frac) + wins_[lo + 1] * frac;
  }

 private:
  double max_age_;
  std::vector<double> wins_;
};

}  // namespace ftl::qnet
