// PairPool: the Figure-2 supply chain for one endpoint pair, written once.
//
// An SPDC source emits pairs as a Poisson process; both photons cross a
// lossy fiber; surviving pairs land in a small QNIC store where they
// decohere; requests take the freshest stored pair. The pool resolves each
// emission at its *arrival* time (emission + propagation delay), so it only
// ever holds pairs that have fully crossed the fiber: a photon still in
// flight is implicit in the next emission time and holds no slot. On every
// arrival it first evicts pairs older than the storage limit (counted
// expired), then drops the oldest pair if the store is still full (counted
// dropped_full).
//
// The pool holds no metrics, decision or win-curve code, and draws nothing
// on its own: every draw comes from a caller-owned util::Rng&, so a caller
// can interleave emission draws with its own on one stream. The three
// callers are qnet::LiveBroker (one pool per source), simulate_pair_supply
// (one pool, Poisson requests) and core::CorrelatedPair (one pool advanced
// to each round's time).
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "qnet/config.hpp"
#include "util/rng.hpp"

namespace ftl::qnet {

/// Storage limit a QNIC enforces: cfg.max_storage_s, clamped to the window
/// in which a pair of fresh visibility `v0` still beats the classical 3/4
/// (a pair stored longer would make a "quantum" round worse than the
/// fallback). Zero when even fresh pairs lose.
[[nodiscard]] double storage_limit_s(const QnetConfig& cfg, double v0);

/// Plain running totals of one pool.
struct PoolTallies {
  std::uint64_t generated = 0;     ///< emissions resolved (arrival <= now)
  std::uint64_t delivered = 0;     ///< both photons survived the fiber
  std::uint64_t lost_fiber = 0;    ///< at least one photon absorbed
  std::uint64_t expired = 0;       ///< evicted past the storage limit
  std::uint64_t dropped_full = 0;  ///< oldest pair overwritten by an arrival
  std::size_t high_water = 0;      ///< largest occupancy ever reached
};

/// Pair conservation at a stats boundary, for any stats struct with the
/// pairs_* fields: every generated pair was lost in the fiber or delivered,
/// and every delivered pair was consumed (`hits`), expired, dropped from a
/// full store, or is still stored.
template <typename Stats>
[[nodiscard]] bool pairs_conserved(const Stats& s, std::uint64_t hits) {
  return s.pairs_generated == s.pairs_lost_fiber + s.pairs_delivered &&
         s.pairs_delivered == hits + s.pairs_expired + s.pairs_dropped_full +
                                  s.pairs_in_memory;
}

class PairPool {
 public:
  /// Emission physics from `cfg` (pair rate, fiber loss and delay), a store
  /// of cfg.memory_slots pairs, and the storage limit (see
  /// storage_limit_s). Draws the first emission time from `rng`.
  PairPool(const QnetConfig& cfg, double max_storage_s, util::Rng& rng);

  /// Resolves every emission whose arrival time is <= now_s (one fiber-loss
  /// draw and one inter-emission draw each, in that order), then evicts
  /// pairs older than the storage limit at now_s.
  void produce_until(double now_s, util::Rng& rng);

  /// Removes the freshest stored pair and returns its storage age at now_s
  /// (never negative); nullopt when the store is empty. Call after
  /// produce_until(now_s) so the store is current and free of expired pairs.
  std::optional<double> take_freshest(double now_s);

  [[nodiscard]] std::size_t size() const { return count_; }
  [[nodiscard]] const PoolTallies& tallies() const { return tallies_; }

 private:
  void evict_expired(double now_s);

  std::vector<double> ring_;  ///< arrival times, oldest at head_
  std::size_t head_ = 0;
  std::size_t count_ = 0;
  double next_emit_s_;
  double pair_rate_hz_;
  double deliver_p_;
  double delay_s_;
  double max_storage_s_;
  PoolTallies tallies_;
};

}  // namespace ftl::qnet
