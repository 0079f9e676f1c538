// §2/§4.1's multiparty pointer: XOR games extend to more than two players
// with a larger advantage [12, 31]. The Mermin-GHZ parity game makes the
// gap concrete: classical value 1/2 + 2^{-ceil(n/2)} vs quantum 1.
#include <cmath>
#include <iostream>

#include "bench_common.hpp"
#include "games/magic_square.hpp"
#include "games/multiparty.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

namespace {

using namespace ftl;

std::uint64_t g_seed = 3;  // sampled-play streams; override with --seed

}  // namespace

// Shared obs flags (see bench_common.hpp): --seed, --metrics-out,
// --metrics-every, --prom-out, --trace-out, and --profile-out /
// --profile-hz (in-process sampling CPU profile;
// folded output pipes straight into flamegraph.pl).
int main(int argc, char** argv) {
  const ftl::bench::Options obs_opts =
      ftl::bench::parse_args(argc, argv, g_seed);
  g_seed = obs_opts.seed;
  const ftl::bench::ObsSession obs_session("bench_multiparty_games", obs_opts);

  std::cout << "\nMermin-GHZ parity game values (advantage grows with "
               "parties, per [31]):\n";
  util::Table t({"parties", "classical (theory)", "classical (measured)",
                 "quantum (exact sim)", "gap"});
  for (std::size_t n = 3; n <= 6; ++n) {
    const games::GhzParityGame game(n);
    const double theory =
        0.5 + std::pow(2.0, -std::ceil(static_cast<double>(n) / 2.0));
    const double classical = game.classical_value();
    const double quantum = game.quantum_value_exact();
    t.add_row({static_cast<long long>(n), theory, classical, quantum,
               quantum - classical});
  }
  t.print(std::cout);

  // Pseudo-telepathy: the magic square game (paper ref [11]).
  const games::MagicSquareGame square;
  util::Rng rng(g_seed + 96);
  int wins = 0;
  const int rounds = 2000;
  for (int i = 0; i < rounds; ++i) {
    const std::size_t r = rng.uniform_int(3);
    const std::size_t c = rng.uniform_int(3);
    if (square.wins(r, c, square.play_quantum(r, c, rng))) ++wins;
  }
  std::cout << "\nMermin-Peres magic square (pseudo-telepathy):\n";
  util::Table mt({"quantity", "value"});
  mt.set_precision(6);
  mt.add_row({std::string("classical value (exhaustive)"),
              square.classical_value()});
  mt.add_row({std::string("theory"), 8.0 / 9.0});
  mt.add_row({std::string("quantum sampled win rate"),
              static_cast<double>(wins) / rounds});
  mt.print(std::cout);
  return 0;
}
