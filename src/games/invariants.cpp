#include "games/invariants.hpp"

#include <cmath>
#include <sstream>

namespace ftl::games {

bool is_no_signaling(const CorrelationBox& box, double tol) {
  return box.no_signaling_violation() <= tol;
}

std::string box_violation(const CorrelationBox& box, double tol) {
  for (int x = 0; x < 2; ++x) {
    for (int y = 0; y < 2; ++y) {
      double sum = 0.0;
      for (int a = 0; a < 2; ++a) {
        for (int b = 0; b < 2; ++b) {
          const double p = box.p(x, y, a, b);
          if (p < -tol) {
            std::ostringstream os;
            os << "negative entry p(" << a << "," << b << "|" << x << ","
               << y << ") = " << p;
            return os.str();
          }
          sum += p;
        }
      }
      if (std::abs(sum - 1.0) > tol) {
        std::ostringstream os;
        os << "distribution at (x=" << x << ",y=" << y << ") sums to "
           << sum;
        return os.str();
      }
    }
  }
  const double sig = box.no_signaling_violation();
  if (sig > tol) {
    std::ostringstream os;
    os << "signaling: marginal shifts by " << sig
       << " with the remote input";
    return os.str();
  }
  return "";
}

std::string box_strategy_mismatch(const CorrelationBox& box,
                                  const QuantumStrategy& s, double tol) {
  std::ostringstream os;
  for (int x = 0; x < 2; ++x) {
    for (int y = 0; y < 2; ++y) {
      for (int a = 0; a < 2; ++a) {
        for (int b = 0; b < 2; ++b) {
          const double from_box = box.p(x, y, a, b);
          const double from_strategy = s.joint_probability(
              static_cast<std::size_t>(x), static_cast<std::size_t>(y), a, b);
          if (std::abs(from_box - from_strategy) > tol) {
            os << "P(" << a << "," << b << "|" << x << "," << y
               << "): box " << from_box << " vs strategy " << from_strategy;
            return os.str();
          }
        }
      }
      const double corr_box = box.correlator(x, y);
      const double corr_strat = s.correlator(static_cast<std::size_t>(x),
                                             static_cast<std::size_t>(y));
      if (std::abs(corr_box - corr_strat) > tol) {
        os << "E(" << x << "," << y << "): box " << corr_box
           << " vs strategy " << corr_strat;
        return os.str();
      }
    }
  }
  return "";
}

bool ValueSandwich::consistent(double tol) const {
  if (classical > sdp_value + tol) return false;
  if (seesaw_lower > sdp_value + tol) return false;
  if (has_npa && sdp_value > npa_upper + tol) return false;
  // All values are win probabilities.
  const double values[] = {classical, seesaw_lower, sdp_value, npa_upper};
  for (double v : values) {
    if (v < -tol || v > 1.0 + tol) return false;
  }
  return true;
}

std::string ValueSandwich::describe() const {
  std::ostringstream os;
  os << "classical=" << classical << " seesaw=" << seesaw_lower
     << " sdp=" << sdp_value;
  if (has_npa) os << " npa=" << npa_upper;
  return os.str();
}

ValueSandwich value_sandwich(const XorGame& game,
                             const sdp::GramOptions& sdp_opts,
                             const SeesawOptions& seesaw_opts) {
  ValueSandwich s;
  s.classical = game.classical_value();
  s.sdp_value = (1.0 + game.quantum_bias(sdp_opts).bias) / 2.0;
  const TwoPartyGame g = game.to_two_party_game();
  s.seesaw_lower = seesaw_optimize(g, seesaw_opts).value;
  if (game.num_x() == 2 && game.num_y() == 2) {
    s.npa_upper = npa1_upper_bound(g).upper_bound;
    s.has_npa = true;
  }
  return s;
}

}  // namespace ftl::games
