// Pieces of the xor_sweep workload the traced ledger reuses.
#pragma once

#include <cstdint>
#include <vector>

#include "games/value_engine.hpp"
#include "games/xor_game.hpp"

namespace perfbench {

inline constexpr std::size_t kSweepVertices[] = {8, 10, 12};

struct SweepGame {
  std::size_t vertices = 0;
  ftl::games::XorGame game;
  std::vector<std::vector<double>> cost;
};

/// The seeded Fig-3-style sweep: for 8, 10 and 12 vertices, 40 random
/// affinity graphs at each P(edge exclusive) in {0, 0.1, ..., 1}, in that
/// order (1320 games).
[[nodiscard]] std::vector<SweepGame> xor_sweep_games(std::uint64_t seed);

/// Engine options for one vertex count (8 SDP restarts, seeded).
[[nodiscard]] ftl::games::XorValueOptions xor_engine_options(
    std::uint64_t seed, std::size_t vertices);

/// One engine per vertex count, as the Fig-3 bench chains its caches.
struct SweepEngines {
  explicit SweepEngines(std::uint64_t seed);
  [[nodiscard]] ftl::games::XorValueEngine& for_vertices(std::size_t n);
  std::vector<ftl::games::XorValueEngine> engines;
};

}  // namespace perfbench
