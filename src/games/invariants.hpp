// Invariant checkers for non-local games: box validity, no-signaling, and
// the classical <= quantum <= NPA value sandwich that certifies every
// advantage number this reproduction reports.
#pragma once

#include <string>

#include "games/box.hpp"
#include "games/npa.hpp"
#include "games/seesaw.hpp"
#include "games/strategy.hpp"
#include "games/xor_game.hpp"
#include "sdp/tsirelson.hpp"

namespace ftl::games {

/// Neither side's marginal depends on the other side's input. Physical
/// (quantum or classical) boxes must satisfy this — it is the paper's
/// "respecting causality" clause.
[[nodiscard]] bool is_no_signaling(const CorrelationBox& box,
                                   double tol = 1e-7);

/// Explains the first violated box law ("negative entry", "distribution at
/// (x,y) sums to ...", "signaling: ..."); empty when valid and no-signaling.
[[nodiscard]] std::string box_violation(const CorrelationBox& box,
                                        double tol = 1e-7);

/// Cross-validates CorrelationBox::from_strategy against the strategy's own
/// expectation values: correlators, marginals, and Born probabilities must
/// agree entry-wise. Returns an explanation, empty on agreement.
[[nodiscard]] std::string box_strategy_mismatch(const CorrelationBox& box,
                                                const QuantumStrategy& s,
                                                double tol = 1e-9);

/// The value sandwich for an XOR game, all in win-probability space:
///
///   classical (exact search)  <=  quantum (Tsirelson SDP)  <=  NPA-1 upper
///   see-saw lower bound       <=  quantum (Tsirelson SDP)
///
/// `npa_upper` is only populated for 2x2-input games (the NPA level-1+AB
/// implementation's domain); it is set to 1.0 otherwise.
struct ValueSandwich {
  double classical = 0.0;
  double seesaw_lower = 0.0;
  double sdp_value = 0.0;
  double npa_upper = 1.0;
  bool has_npa = false;

  /// All orderings hold within tol.
  [[nodiscard]] bool consistent(double tol = 1e-5) const;
  [[nodiscard]] std::string describe() const;
};

/// Computes all four bounds. Solver options default to settings sized for
/// property-test throughput (hundreds of random games per suite).
[[nodiscard]] ValueSandwich value_sandwich(const XorGame& game,
                                           const sdp::GramOptions& sdp_opts,
                                           const SeesawOptions& seesaw_opts);

}  // namespace ftl::games
