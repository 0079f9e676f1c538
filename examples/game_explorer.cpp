// game_explorer: interactive tour of the non-local game toolkit.
//
// Generates a random affinity graph, builds its XOR game, computes the
// exact classical and quantum values, shows the realising correlators, and
// situates the result in the local/quantum/no-signaling hierarchy. The
// tool the paper's §5 "collaboration between networking and quantum
// information" would reach for first.
//
//   build/examples/game_explorer [num_types] [p_exclusive] [seed]
//
// num_types is 2..6 (default 5): the Tsirelson realisation spans up to
// 2*num_types dimensions and its register holds at most 12 qubits.
// p_exclusive is 0..1 (default 0.5) and seed at least 0 (default 2025);
// anything else prints the usage line and exits 2.
#include <cstdio>
#include <iostream>
#include <optional>

#include "games/box.hpp"
#include "games/chsh.hpp"
#include "games/realize.hpp"
#include "games/seesaw.hpp"
#include "games/xor_game.hpp"
#include "util/args.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace ftl;
  const std::optional<long long> n_arg =
      argc > 1 ? util::parse_long_long(argv[1]) : 5;
  const std::optional<double> p_arg =
      argc > 2 ? util::parse_double(argv[2]) : 0.5;
  const std::optional<long long> seed_arg =
      argc > 3 ? util::parse_long_long(argv[3]) : 2025;
  if (!n_arg || *n_arg < 2 || *n_arg > 6 || !p_arg ||
      !(*p_arg >= 0.0 && *p_arg <= 1.0) || !seed_arg || *seed_arg < 0) {
    std::fputs(
        "usage: build/examples/game_explorer [num_types] [p_exclusive] "
        "[seed]\n",
        stderr);
    return 2;
  }
  const auto n = static_cast<std::size_t>(*n_arg);
  const double p_exclusive = *p_arg;
  const auto seed = static_cast<std::uint64_t>(*seed_arg);

  util::Rng rng(seed);
  const games::AffinityGraph graph =
      games::AffinityGraph::random(n, p_exclusive, rng);

  std::printf("affinity graph: %zu task types, %zu exclusive edges "
              "(p_exclusive %.2f, seed %llu)\n\n",
              n, graph.num_exclusive_edges(), p_exclusive,
              static_cast<unsigned long long>(seed));

  std::puts("edge labels (X = exclusive, . = colocate):");
  for (std::size_t u = 0; u < n; ++u) {
    for (std::size_t v = 0; v < n; ++v) {
      std::putchar(graph.at(u, v) == games::Affinity::kExclusive ? 'X' : '.');
      std::putchar(' ');
    }
    std::putchar('\n');
  }

  const games::XorGame game = games::XorGame::from_affinity(graph);
  const auto witness = game.classical_strategy();
  sdp::GramOptions opts;
  opts.restarts = 12;
  const auto qres = game.quantum_bias(opts);

  std::printf("\nclassical value: %.6f   (best deterministic outputs: a=",
              (1.0 + witness.bias) / 2.0);
  for (int v : witness.alice) std::printf("%d", v);
  std::printf(", b=");
  for (int v : witness.bob) std::printf("%d", v);
  std::printf(")\nquantum value:   %.6f   (Tsirelson SDP)\n",
              (1.0 + qres.bias) / 2.0);
  const bool adv = qres.bias > witness.bias + 1e-5;
  std::printf("quantum advantage: %s (gap %.6f in bias)\n",
              adv ? "YES" : "no", qres.bias - witness.bias);

  // Realised correlators E(x, y) = <u_x, v_y> from the Tsirelson vectors.
  std::puts("\nquantum correlators E(x, y) (want +1 on colocate, -1 on "
            "exclusive):");
  for (std::size_t x = 0; x < n; ++x) {
    for (std::size_t y = 0; y < n; ++y) {
      double dot = 0.0;
      for (std::size_t k = 0; k < qres.alice[x].size(); ++k) {
        dot += qres.alice[x][k] * qres.bob[y][k];
      }
      std::printf("%+.2f ", dot);
    }
    std::putchar('\n');
  }

  // Tsirelson's construction: realize the optimal strategy and play it.
  const games::RealizedXorStrategy realized(game, qres);
  util::Rng play_rng(seed ^ 0xfeed);
  int wins = 0;
  const int rounds = 20000;
  for (int i = 0; i < rounds; ++i) {
    std::size_t x = play_rng.uniform_int(n);
    std::size_t y = play_rng.uniform_int(n);
    while (x == y) {
      x = play_rng.uniform_int(n);
      y = play_rng.uniform_int(n);
    }
    const auto [a, b] = realized.play(x, y, play_rng);
    if ((a ^ b) == game.f(x, y)) ++wins;
  }
  std::printf("\nTsirelson realization: %zu qubit(s) per load balancer;\n"
              "exact value %.6f, sampled over %d rounds: %.6f\n",
              realized.qubits_per_party(), realized.value(), rounds,
              static_cast<double>(wins) / rounds);

  // The canonical 2-input case, placed in the box hierarchy.
  std::puts("\nthe hierarchy on CHSH (local <= 2 < quantum <= 2*sqrt(2) < "
            "PR = 4):");
  const auto classical_box =
      games::CorrelationBox::local_deterministic(0, 0, 0, 0);
  const auto quantum_box = games::CorrelationBox::from_strategy(
      games::chsh_quantum_strategy(games::chsh_optimal_angles()));
  const auto pr = games::CorrelationBox::pr_box();
  util::Table t({"box", "CHSH value", "local?", "quantum-admissible?",
                 "no-signaling?"});
  auto row = [&](const char* name, const games::CorrelationBox& box) {
    t.add_row({std::string(name), box.chsh_value(),
               std::string(box.is_local_admissible() ? "yes" : "no"),
               std::string(box.is_quantum_admissible() ? "yes" : "no"),
               std::string(box.no_signaling_violation() < 1e-9 ? "yes" : "no")});
  };
  row("best deterministic", classical_box);
  row("optimal quantum", quantum_box);
  row("PR box (hypothetical)", pr);
  t.print(std::cout);

  // See-saw on the CHSH game as a sanity anchor.
  const auto seesaw = games::seesaw_optimize(games::chsh_game());
  std::printf("\nsee-saw lower bound for CHSH: %.6f (Tsirelson: %.6f)\n",
              seesaw.value, 0.5 + 0.25 * std::sqrt(2.0));
  return 0;
}
