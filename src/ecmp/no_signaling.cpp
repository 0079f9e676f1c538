#include "ecmp/no_signaling.hpp"

#include <cmath>

#include "util/assert.hpp"

namespace ftl::ecmp {

std::vector<std::vector<double>> joint_ab(const qcore::Density& rho,
                                          std::size_t qubit_a,
                                          const qcore::CMat& basis_a,
                                          std::size_t qubit_b,
                                          const qcore::CMat& basis_b) {
  std::vector<std::vector<double>> p(2, std::vector<double>(2, 0.0));
  for (int oa = 0; oa < 2; ++oa) {
    const double pa = rho.outcome_probability(qubit_a, basis_a, oa);
    if (pa <= 1e-15) continue;
    const auto [after, prob] = rho.collapse(qubit_a, basis_a, oa);
    (void)prob;
    for (int ob = 0; ob < 2; ++ob) {
      p[oa][ob] = pa * after.outcome_probability(qubit_b, basis_b, ob);
    }
  }
  return p;
}

namespace {

/// Same joint, computed the "C measures first" way: C (qubit_c) measures in
/// basis_c, and the A/B joint is averaged over C's outcomes. By
/// no-signaling this must equal joint_ab for every basis_c.
std::vector<std::vector<double>> joint_ab_after_c(
    const qcore::Density& rho, std::size_t qubit_a, const qcore::CMat& basis_a,
    std::size_t qubit_b, const qcore::CMat& basis_b, std::size_t qubit_c,
    const qcore::CMat& basis_c) {
  std::vector<std::vector<double>> p(2, std::vector<double>(2, 0.0));
  for (int oc = 0; oc < 2; ++oc) {
    const double pc = rho.outcome_probability(qubit_c, basis_c, oc);
    if (pc <= 1e-15) continue;
    const auto [after_c, prob] = rho.collapse(qubit_c, basis_c, oc);
    (void)prob;
    const auto joint = joint_ab(after_c, qubit_a, basis_a, qubit_b, basis_b);
    for (int oa = 0; oa < 2; ++oa) {
      for (int ob = 0; ob < 2; ++ob) p[oa][ob] += pc * joint[oa][ob];
    }
  }
  return p;
}

}  // namespace

double no_signaling_deviation(const qcore::Density& rho, std::size_t qubit_a,
                              const qcore::CMat& basis_a, std::size_t qubit_b,
                              const qcore::CMat& basis_b, std::size_t qubit_c,
                              const qcore::CMat& basis_c) {
  const auto direct = joint_ab(rho, qubit_a, basis_a, qubit_b, basis_b);
  const auto via_c = joint_ab_after_c(rho, qubit_a, basis_a, qubit_b, basis_b,
                                      qubit_c, basis_c);
  double dev = 0.0;
  for (int oa = 0; oa < 2; ++oa) {
    for (int ob = 0; ob < 2; ++ob) {
      dev = std::max(dev, std::abs(direct[oa][ob] - via_c[oa][ob]));
    }
  }
  return dev;
}

std::vector<std::pair<double, qcore::Density>> reduce_by_measuring(
    const qcore::Density& rho, std::size_t qubit_c,
    const qcore::CMat& basis_c) {
  std::vector<std::pair<double, qcore::Density>> ensemble;
  for (int oc = 0; oc < 2; ++oc) {
    const double pc = rho.outcome_probability(qubit_c, basis_c, oc);
    if (pc <= 1e-15) continue;
    auto [after, prob] = rho.collapse(qubit_c, basis_c, oc);
    (void)prob;
    ensemble.emplace_back(pc, after.partial_trace({qubit_c}));
  }
  return ensemble;
}

}  // namespace ftl::ecmp
