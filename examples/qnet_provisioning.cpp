// qnet_provisioning: size an entanglement source for a cluster.
//
// Given a request rate and a hardware budget (SPDC pair rate, fiber length,
// memory T1/T2), decide whether the quantum load balancer will actually
// beat the classical one end to end — the engineering question behind
// Section 3.
//
//   build/examples/qnet_provisioning [request_rate_hz] [fiber_km]
//
// request_rate_hz is a finite number above 0 (default 1e4) and fiber_km a
// finite number at least 0 (default 0.5); anything else prints the usage
// line and exits 2.
#include <cmath>
#include <cstdio>
#include <iostream>
#include <optional>

#include "core/coordinator.hpp"
#include "qnet/decoherence.hpp"
#include "qnet/timing.hpp"
#include "util/args.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace ftl;
  const std::optional<double> rate_arg =
      argc > 1 ? util::parse_double(argv[1]) : 1e4;
  const std::optional<double> km_arg =
      argc > 2 ? util::parse_double(argv[2]) : 0.5;
  if (!rate_arg || !std::isfinite(*rate_arg) || *rate_arg <= 0.0 || !km_arg ||
      !std::isfinite(*km_arg) || *km_arg < 0.0) {
    std::fputs(
        "usage: build/examples/qnet_provisioning [request_rate_hz] "
        "[fiber_km]\n",
        stderr);
    return 2;
  }
  const double request_rate = *rate_arg;
  const double fiber_km = *km_arg;

  std::printf("provisioning for %g requests/s over %.2f km fiber\n\n",
              request_rate, fiber_km);

  std::puts("step 1: how long can a pair sit in QNIC memory and still win?");
  for (double v0 : {0.99, 0.95, 0.90}) {
    std::printf("  source visibility %.2f -> useful storage window %.1f us\n",
                v0, qnet::useful_storage_window_s(v0, 500e-6, 100e-6) * 1e6);
  }

  std::puts("\nstep 2: pair-rate sweep (hit rate and end-to-end win prob):");
  util::Table t({"pair rate (hz)", "hit fraction", "mean age (us)",
                 "effective win", "verdict"});
  double needed_rate = -1.0;
  for (double rate : {1e3, 3e3, 1e4, 3e4, 1e5, 1e6}) {
    qnet::QnetConfig cfg;
    cfg.pair_rate_hz = rate;
    cfg.fiber_km = fiber_km;
    const auto report =
        core::Coordinator::provision(cfg, 0.98, request_rate, 0.5, 1);
    if (std::isnan(report.effective_win_probability)) {
      // No request arrived in the window, so there is nothing to rate.
      const std::string na = "n/a";
      t.add_row({rate, na, na, na, std::string("no request in window")});
      continue;
    }
    const bool ok = report.quantum_worthwhile();
    if (ok && needed_rate < 0.0) needed_rate = rate;
    t.add_row({rate, report.pair_hit_fraction, report.mean_pair_age_s * 1e6,
               report.effective_win_probability,
               std::string(ok ? "worthwhile" : "stay classical")});
  }
  t.print(std::cout);
  if (needed_rate > 0.0) {
    std::printf("\n=> provision at least %.0f pairs/s (the paper cites SPDC "
                "sources spanning 1e4-1e7 pairs/s at room temperature).\n",
                needed_rate);
  }

  std::puts("\nstep 3: what latency does this buy (Figure 2)?");
  qnet::TimingModel m;
  m.inter_server_distance_m = 100.0;
  std::printf("  classical coordination RTT: %.2f us\n",
              qnet::classical_coordination_latency_s(m) * 1e6);
  std::printf("  quantum stored-qubit decision: %.2f us\n",
              qnet::quantum_decision_latency_s(m) * 1e6);
  m.inter_server_distance_m = 1.0e6;  // two datacenters, 1000 km apart
  std::printf("  ...at 1000 km the classical RTT is %.0f us; the quantum "
              "decision latency is unchanged (%.2f us).\n",
              qnet::classical_coordination_latency_s(m) * 1e6,
              qnet::quantum_decision_latency_s(m) * 1e6);
  return 0;
}
