// Pieces of the fig4_sharded workload the traced ledger reuses.
#pragma once

#include <cstdint>
#include <string>

#include "lb/sharded_simulator.hpp"

namespace perfbench {

/// 1e5 servers at load 0.95, source quantum-chsh, ~1024 servers per shard,
/// 100 warm-up + 400 measured steps.
[[nodiscard]] ftl::lb::ShardedLbConfig fig4_config(std::uint64_t seed);

/// Empty when the run satisfies arrived = served + still_queued (per shard
/// and in total) and its CHSH win rate lies within 5 standard errors of
/// cos^2(pi/8); otherwise a description of the first violation.
[[nodiscard]] std::string fig4_violation(const ftl::lb::ShardedLbResult& r);

}  // namespace perfbench
