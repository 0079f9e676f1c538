#include "qnet/distill.hpp"

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "qcore/gates.hpp"
#include "util/assert.hpp"

namespace ftl::qnet {

DistillResult bbpssw_round(const qcore::Density& pair1,
                           const qcore::Density& pair2) {
  FTL_ASSERT(pair1.num_qubits() == 2 && pair2.num_qubits() == 2);
  const obs::ScopedSpan span("qnet.bbpssw_round", "qnet");
  obs::registry().counter("qnet.distill.rounds").inc();
  // Qubit layout: [0]=A1, [1]=B1 (kept), [2]=A2, [3]=B2 (sacrificed).
  qcore::Density rho = pair1.tensor(pair2);

  // Bilateral CNOTs: Alice controls A1 -> A2, Bob controls B1 -> B2.
  rho.apply2(qcore::gates::CNOT(), 0, 2);
  rho.apply2(qcore::gates::CNOT(), 1, 3);

  // Coincidence measurement of the sacrificed pair in the computational
  // basis; keep on equal outcomes.
  const qcore::CMat comp = qcore::CMat::identity(2);
  DistillResult out{0.0, qcore::Density::maximally_mixed(2), 0.0};
  qcore::CMat kept(4, 4);
  double p_success = 0.0;
  for (int o = 0; o < 2; ++o) {
    const double p2 = rho.outcome_probability(2, comp, o);
    if (p2 <= 1e-15) continue;
    const auto [after2, chk2] = rho.collapse(2, comp, o);
    (void)chk2;
    const double p3 = after2.outcome_probability(3, comp, o);
    if (p3 <= 1e-15) continue;
    const auto [after3, chk3] = after2.collapse(3, comp, o);
    (void)chk3;
    const double branch_p = p2 * p3;
    p_success += branch_p;
    kept += after3.partial_trace({2, 3}).matrix() * qcore::Cx{branch_p, 0.0};
  }
  FTL_ASSERT_MSG(p_success > 1e-12, "distillation cannot succeed here");
  kept *= qcore::Cx{1.0 / p_success, 0.0};

  out.success_probability = p_success;
  out.state = qcore::Density::from_matrix(std::move(kept));
  out.fidelity = out.state.fidelity_with(qcore::StateVec::bell_phi_plus());
  return out;
}

DistillResult dejmps_round(const qcore::Density& pair1,
                           const qcore::Density& pair2) {
  // Bilateral basis rotation: Alice Rx(pi/2) on her halves, Bob Rx(-pi/2)
  // on his, then the BBPSSW circuit. The rotation maps Z errors to X
  // errors, which the computational-basis coincidence test detects.
  auto rotate = [](qcore::Density rho) {
    rho.apply1(qcore::gates::Rx(M_PI / 2.0), 0);
    rho.apply1(qcore::gates::Rx(-M_PI / 2.0), 1);
    return rho;
  };
  return bbpssw_round(rotate(pair1), rotate(pair2));
}

double werner_distill_success(double f) {
  FTL_ASSERT(f >= 0.0 && f <= 1.0);
  const double g = (1.0 - f) / 3.0;
  return f * f + 2.0 * f * g + 5.0 * g * g;
}

double werner_distilled_fidelity(double f) {
  const double g = (1.0 - f) / 3.0;
  return (f * f + g * g) / werner_distill_success(f);
}

RecurrenceResult distill_to_target(double f0, double target, int max_rounds) {
  FTL_ASSERT(target > 0.5 && target < 1.0);
  RecurrenceResult r;
  r.fidelity = f0;
  r.expected_raw_pairs = 1.0;
  if (f0 <= 0.5) return r;  // below the distillation threshold: hopeless
  for (int round = 0; round < max_rounds && r.fidelity < target; ++round) {
    const double p = werner_distill_success(r.fidelity);
    // Each round consumes two inputs of the previous level and succeeds
    // with probability p, so raw cost multiplies by 2/p.
    r.expected_raw_pairs *= 2.0 / p;
    r.fidelity = werner_distilled_fidelity(r.fidelity);
    ++r.rounds;
  }
  r.reached_target = r.fidelity >= target;
  return r;
}

}  // namespace ftl::qnet
