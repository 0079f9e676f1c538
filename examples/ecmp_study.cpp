// ecmp_study: Section 4.2's negative result, interactively.
//
// N switches share M = 2 equal-cost paths; only a random pair is active
// each round. Compare every strategy and demonstrate the no-signaling
// reduction that makes global entanglement useless here.
//
//   build/examples/ecmp_study [num_switches] [rounds]
//
// num_switches is 2..12 (default 4) and rounds at least 1 (default
// 100000); anything else prints the usage line and exits 2.
#include <cmath>
#include <cstdio>
#include <iostream>
#include <optional>
#include <vector>

#include "ecmp/no_signaling.hpp"
#include "ecmp/simulator.hpp"
#include "ecmp/strategies.hpp"
#include "qcore/gates.hpp"
#include "util/args.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace ftl;
  const std::optional<long long> n_arg =
      argc > 1 ? util::parse_long_long(argv[1]) : 4;
  const std::optional<long long> rounds_arg =
      argc > 2 ? util::parse_long_long(argv[2]) : 100000;
  if (!n_arg || *n_arg < 2 || *n_arg > 12 || !rounds_arg || *rounds_arg < 1) {
    std::fputs("usage: build/examples/ecmp_study [num_switches] [rounds]\n",
               stderr);
    return 2;
  }
  const auto n = static_cast<std::size_t>(*n_arg);
  const auto rounds = static_cast<std::size_t>(*rounds_arg);

  ecmp::EcmpConfig cfg;
  cfg.active = 2;
  cfg.rounds = rounds;

  std::printf("ECMP: %zu switches, 2 paths, 2 active per round, %zu rounds\n\n",
              n, rounds);

  util::Table t({"strategy", "mean collisions", "P(collision-free)",
                 "path spread"});
  const auto row = [&](ecmp::EcmpStrategy& s) {
    const ecmp::EcmpResult r = run_ecmp_sim(cfg, s);
    t.add_row({s.name(), r.mean_collisions, r.p_collision_free,
               r.path_spread});
  };
  ecmp::IndependentUniform ind(n, 2);
  ecmp::SharedPartition part(n, 2);
  ecmp::PairedSinglets singlets(n);
  ecmp::LocalMeasurements ghz(
      "ghz (all at pi/4)", qcore::StateVec::ghz(n),
      std::vector<qcore::CMat>(n, qcore::gates::real_basis(M_PI / 4.0)));
  ecmp::LocalMeasurements w(
      "w (computational)", ecmp::w_state(n),
      std::vector<qcore::CMat>(n, qcore::gates::real_basis(0.0)));
  row(ind);
  row(part);
  row(singlets);
  row(ghz);
  row(w);
  t.print(std::cout);

  std::printf("\nbalanced partition: %.4f, the optimum over every strategy, "
              "entangled or not, since a switch gets no input (THEORY §8)\n",
              ecmp::SharedPartition::pair_collision_probability(n, 2));

  // The no-signaling reduction on GHZ(3): whatever basis the inactive
  // switch C picks, A and B's joint distribution is untouched.
  std::puts("\nno-signaling reduction check (GHZ(3), varying C's basis):");
  const auto rho = qcore::Density::from_state(qcore::StateVec::ghz(3));
  double max_dev = 0.0;
  for (double theta = 0.0; theta < M_PI; theta += M_PI / 12.0) {
    max_dev = std::max(
        max_dev,
        ecmp::no_signaling_deviation(rho, 0, qcore::gates::real_basis(0.7), 1,
                                     qcore::gates::real_basis(1.3), 2,
                                     qcore::gates::real_basis(theta)));
  }
  std::printf("max deviation over 12 bases of C: %.2e (zero => C's choice "
              "cannot matter, so C may as well measure first)\n",
              max_dev);
  return 0;
}
