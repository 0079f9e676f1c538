// Effect of QNIC storage on the usefulness of a stored Bell pair.
//
// While a pair waits in memory for an input to arrive (Figure 2), each half
// decoheres with its memory's T1/T2. This module computes the exact
// post-storage two-qubit state on the density-matrix simulator and the CHSH
// win probability it still supports — the quantity that decides whether the
// load balancer keeps any advantage (>(3/4) needs enough coherence).
#pragma once

#include <cstddef>
#include <vector>

#include "qcore/density.hpp"

namespace ftl::qnet {

/// State of a visibility-v0 Werner pair after its halves sat in memory for
/// storage_a and storage_b seconds (memories with the given T1/T2).
[[nodiscard]] qcore::Density pair_state_after_storage(double v0,
                                                      double storage_a_s,
                                                      double storage_b_s,
                                                      double t1_s,
                                                      double t2_s);

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

/// Piecewise-linear lookup of the post-storage CHSH win probability
/// (both halves stored for `age` seconds), built once per broker: the exact
/// density-matrix computation behind chsh_win_after_storage is far too slow
/// to run per request, and the curve is smooth enough that 128 samples keep
/// the interpolation error well below the physics noise. Used by the
/// batch simulate_pair_supply and the serving-path LiveBroker to grade the
/// ages their qnet::PairPool returns (the pool itself holds no win curve;
/// CorrelatedPair measures the exact post-storage state instead).
class WinCurve {
 public:
  WinCurve(double v0, double t1_s, double t2_s, double max_age_s,
           std::size_t samples = 128);

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

  [[nodiscard]] double max_age_s() const { return max_age_; }

 private:
  double max_age_;
  std::vector<double> wins_;
};

}  // namespace ftl::qnet
