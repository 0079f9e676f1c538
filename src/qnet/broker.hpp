// Pair broker: the batch provisioning run of the continuous entanglement
// stream in Figure 2 feeding one pair of servers.
//
// Poisson requests drain one qnet::PairPool (Poisson emission, lossy fiber,
// bounded decohering QNIC memory, freshest-first consumption). The
// statistics answer the provisioning question of §3: what pair rate /
// storage budget keeps the quantum advantage alive for a given request
// rate?
#pragma once

#include <cstddef>

#include "qnet/config.hpp"
#include "qnet/pair_pool.hpp"
#include "util/rng.hpp"

namespace ftl::qnet {

struct BrokerStats {
  std::size_t requests = 0;
  /// Requests that found a live (non-expired) pair in memory.
  std::size_t pair_hits = 0;
  /// Pairs generated (emissions whose arrival time has passed) / delivered
  /// (both halves survived fiber).
  std::size_t pairs_generated = 0;
  std::size_t pairs_delivered = 0;
  /// Pairs dropped because memory was full / expired unused.
  std::size_t pairs_dropped_full = 0;
  std::size_t pairs_expired = 0;
  /// Pairs lost to fiber attenuation (at least one photon absorbed).
  std::size_t pairs_lost_fiber = 0;
  /// Live pairs still stored in QNIC memory at the end of the run.
  std::size_t pairs_in_memory = 0;
  /// Mean storage age of consumed pairs, seconds.
  double mean_consumed_age_s = 0.0;
  /// Mean flipped-CHSH win probability over requests: consumed pairs
  /// contribute their post-storage value, misses fall back to the classical
  /// 0.75. This is the end-to-end "effective correlation quality".
  double mean_chsh_win = 0.0;

  [[nodiscard]] double hit_fraction() const {
    return requests == 0 ? 0.0
                         : static_cast<double>(pair_hits) /
                               static_cast<double>(requests);
  }

  /// Exact pair-conservation identity at the stats boundary (see
  /// qnet::pairs_conserved). Tests assert this after every run.
  [[nodiscard]] bool conservation_holds() const {
    return pairs_conserved(*this, pair_hits);
  }
};

/// Simulates `duration_s` of pair supply against Poisson request arrivals
/// at `request_rate_hz` (a request = one simultaneous decision by the two
/// endpoints, consuming one pair). Photons still in the fiber at
/// `duration_s` are not yet generated, so nothing is ever in flight.
[[nodiscard]] BrokerStats simulate_pair_supply(const QnetConfig& cfg,
                                               double request_rate_hz,
                                               double duration_s,
                                               util::Rng& rng);

}  // namespace ftl::qnet
