#include "qnet/decoherence.hpp"

#include <array>
#include <cmath>

#include "games/chsh.hpp"
#include "util/assert.hpp"

namespace ftl::qnet {
namespace {

/// The ±1 observable cos 2θ Z + sin 2θ X an endpoint measures.
struct Observable {
  double cos2;
  double sin2;
};

const Observable& observable(int endpoint, int input) {
  static const std::array<Observable, 4> table = [] {
    const games::ChshAngles a = games::chsh_optimal_angles();
    const double theta[4] = {a.alice0, a.alice1, a.bob0, a.bob1};
    std::array<Observable, 4> t{};
    for (int k = 0; k < 4; ++k) {
      t[k] = {std::cos(2.0 * theta[k]), std::sin(2.0 * theta[k])};
    }
    return t;
  }();
  return table[2 * endpoint + input];
}

}  // namespace

StoredPair::StoredPair(double v0, double age_a_s, double age_b_s, double t1_s,
                       double t2_s) {
  FTL_ASSERT(v0 >= 0.0 && v0 <= 1.0);
  FTL_ASSERT(age_a_s >= 0.0 && age_b_s >= 0.0);
  FTL_ASSERT(t1_s > 0.0);
  FTL_ASSERT(t2_s > 0.0);
  FTL_ASSERT_MSG(t2_s <= 2.0 * t1_s + 1e-12,
                 "physical memories satisfy T2 <= 2*T1");
  const double u_a = std::exp(-age_a_s / t1_s);
  const double u_b = std::exp(-age_b_s / t1_s);
  z_[0] = 1.0 - u_a;
  z_[1] = 1.0 - u_b;
  t_zz_ = v0 * u_a * u_b + z_[0] * z_[1];
  t_xx_ = v0 * std::exp(-(age_a_s + age_b_s) / t2_s);
}

double StoredPair::joint(int x, int y, int a, int b) const {
  const Observable& oa = observable(0, x);
  const Observable& ob = observable(1, y);
  const double sa = a == 0 ? 1.0 : -1.0;  // outcome 0 is +1 ...
  const double sb = b == 1 ? 1.0 : -1.0;  // ... but Bob's labels are swapped
  return 0.25 * (1.0 + sa * oa.cos2 * z_[0] + sb * ob.cos2 * z_[1] +
                 sa * sb *
                     (oa.cos2 * ob.cos2 * t_zz_ + oa.sin2 * ob.sin2 * t_xx_));
}

double StoredPair::marginal_one(int endpoint, int input) const {
  const double s = endpoint == 1 ? 1.0 : -1.0;  // the value outcome 1 means
  return 0.5 * (1.0 + s * observable(endpoint, input).cos2 * z_[endpoint]);
}

double StoredPair::conditional_one(int endpoint, int input, int partner_input,
                                   int partner_outcome) const {
  const double p1 = marginal_one(1 - endpoint, partner_input);
  const double partner = partner_outcome == 1 ? p1 : 1.0 - p1;
  FTL_ASSERT_MSG(partner > 0.0, "conditioning on an outcome of probability 0");
  return (endpoint == 0 ? joint(input, partner_input, 1, partner_outcome)
                        : joint(partner_input, input, partner_outcome, 1)) /
         partner;
}

double StoredPair::win_probability() const {
  return 0.5 + (t_zz_ + t_xx_) / (4.0 * std::sqrt(2.0));
}

double chsh_win_after_storage(double v0, double storage_a_s,
                              double storage_b_s, double t1_s, double t2_s) {
  return StoredPair(v0, storage_a_s, storage_b_s, t1_s, t2_s)
      .win_probability();
}

double useful_storage_window_s(double v0, double t1_s, double t2_s) {
  const double classical = 0.75;
  if (chsh_win_after_storage(v0, 0.0, 0.0, t1_s, t2_s) <= classical + 1e-12) {
    return 0.0;
  }
  double lo = 0.0;
  double hi = t2_s;
  // Grow hi until the pair is useless (bounded to avoid an infinite loop).
  for (int i = 0; i < 60 &&
                  chsh_win_after_storage(v0, hi, hi, t1_s, t2_s) > classical;
       ++i) {
    hi *= 2.0;
  }
  // The win crosses 0.75 once (THEORY.md, "Stored pairs").
  for (int i = 0; i < 80; ++i) {
    const double mid = 0.5 * (lo + hi);
    if (chsh_win_after_storage(v0, mid, mid, t1_s, t2_s) > classical) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return 0.5 * (lo + hi);
}

WinCurve::WinCurve(double v0, double t1_s, double t2_s, double max_age_s)
    : max_age_(max_age_s), wins_(129) {
  for (std::size_t i = 0; i < wins_.size(); ++i) {
    const double age = max_age_ * static_cast<double>(i) / 128.0;
    wins_[i] = chsh_win_after_storage(v0, age, age, t1_s, t2_s);
  }
}

}  // namespace ftl::qnet
