// Concurrent live pair broker: the serving-path caller of qnet::PairPool.
//
// LiveBroker holds one PairPool per source (Poisson emission resolved at
// arrival time, fiber loss, freshest-first consumption, expiry then
// drop-oldest on arrival) that any number of threads advance and consume
// from. Admission control bounds the number of in-flight decisions, and
// every decision feeds `qnet.live.*` metrics so a scrape of the daemon
// shows hit fraction, consumed age, and fallback rate live.
//
// Metric semantics: `qnet.live.pairs.*` receive the pool's tally deltas
// (only the non-zero ones) after each produce, and
// `qnet.live.consumed.age_s` gets one observation per hit.
//
// One mode: the broker reads no clock and starts no thread. Callers pass
// every time to produce_until()/decide(): ftlcoordd passes seconds on its
// own clock and runs its own refill thread, while bench_ftlcoordd and the
// tests pass virtual times. Each source's pool and decisions draw from one
// per-source RNG stream, so every counter is deterministic in (seed,
// config, request schedule), independent of thread interleaving as long as
// each source is called from one thread — the property bench_ftlcoordd's
// CI-gated counters rely on.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "obs/metrics.hpp"
#include "qnet/config.hpp"
#include "qnet/decoherence.hpp"
#include "qnet/pair_pool.hpp"
#include "util/rng.hpp"

namespace ftl::qnet {

struct LiveBrokerConfig {
  /// Physics of each source: emission rate, fiber, visibility, T1/T2, and
  /// the QNIC slots of its pool (qnet.memory_slots).
  QnetConfig qnet;
  /// Independent pair sources (one pool, RNG stream, and emission process
  /// each). A deployment maps each coordinating endpoint pair to a source.
  std::size_t sources = 1;
  /// Admission bound: decisions in flight beyond this are rejected
  /// (bounded-queue backpressure instead of unbounded latency collapse).
  std::size_t max_pending = 1 << 16;
};

/// Aggregated broker statistics (sum over sources at a point in time).
struct LiveBrokerStats {
  std::uint64_t requests = 0;
  std::uint64_t hits = 0;       ///< consumed a live pair
  std::uint64_t fallbacks = 0;  ///< classical fallback (pool empty)
  std::uint64_t rejected = 0;   ///< refused by admission control
  std::uint64_t rounds_won = 0;

  std::uint64_t pairs_generated = 0;
  std::uint64_t pairs_delivered = 0;
  std::uint64_t pairs_lost_fiber = 0;
  std::uint64_t pairs_expired = 0;
  std::uint64_t pairs_dropped_full = 0;
  std::uint64_t pairs_in_memory = 0;

  double consumed_age_sum_s = 0.0;
  double win_sum = 0.0;

  [[nodiscard]] double hit_fraction() const {
    return requests == 0
               ? 0.0
               : static_cast<double>(hits) / static_cast<double>(requests);
  }
  [[nodiscard]] double mean_consumed_age_s() const {
    return hits == 0 ? 0.0 : consumed_age_sum_s / static_cast<double>(hits);
  }
  [[nodiscard]] double mean_chsh_win() const {
    return requests == 0 ? 0.0
                         : win_sum / static_cast<double>(requests);
  }

  /// The batch BrokerStats identity (see qnet::pairs_conserved).
  [[nodiscard]] bool conservation_holds() const {
    return pairs_conserved(*this, hits);
  }
};

class LiveBroker {
 public:
  /// One coordination decision. The broker simulates the endpoint pair's
  /// measurement: a consumed pair plays the flipped-CHSH round at its
  /// post-storage win probability, a miss falls back to the classical 0.75
  /// deterministic strategy.
  struct Decision {
    bool quantum = false;    ///< consumed a live pair
    bool round_won = false;  ///< sampled flipped-CHSH round outcome
    std::uint8_t output = 0;
    double win_probability = 0.75;
    double pair_age_s = 0.0;  ///< storage age of the consumed pair
  };

  LiveBroker(const LiveBrokerConfig& cfg, std::uint64_t seed);

  LiveBroker(const LiveBroker&) = delete;
  LiveBroker& operator=(const LiveBroker&) = delete;

  /// Advances `source`'s pool to now_s (see PairPool::produce_until).
  void produce_until(std::size_t source, double now_s);

  /// Consumes the freshest live pair of `source` at time now_s (classical
  /// fallback when the pool is empty). `input` is the endpoint's game
  /// input bit.
  Decision decide(std::size_t source, std::uint8_t input, double now_s);

  // -- admission control ----------------------------------------------------

  /// Reserves `n` in-flight decision slots; false (and `n` counted
  /// rejected) when the bound would be exceeded. Pair with release().
  [[nodiscard]] bool try_admit(std::size_t n);
  void release(std::size_t n);
  [[nodiscard]] std::size_t pending() const {
    return pending_.load(std::memory_order_relaxed);
  }

  // -- introspection --------------------------------------------------------

  [[nodiscard]] LiveBrokerStats stats() const;
  [[nodiscard]] const LiveBrokerConfig& config() const { return cfg_; }
  /// Effective storage limit: min(cfg.max_storage_s, useful T1/T2 window).
  [[nodiscard]] double max_storage_s() const { return max_storage_s_; }
  /// Post-storage win probability for a pair of the given age.
  [[nodiscard]] double win_at_age(double age_s) const {
    return win_curve_.at(age_s);
  }

 private:
  /// One pair source: its pool plus the decision tallies, all guarded by
  /// `mu`, and one RNG stream for both emission and decision draws. Plain
  /// integers keep the hot path free of extra atomics (the obs counters
  /// already provide the lock-free live view); stats() sums them. Padded
  /// to a cache line so per-source mutexes do not false-share.
  struct alignas(64) Source {
    Source(const QnetConfig& q, double max_storage_s, util::Rng stream)
        : rng(stream), pool(q, max_storage_s, rng) {}

    std::mutex mu;
    util::Rng rng;
    PairPool pool;
    std::uint64_t requests = 0, hits = 0, fallbacks = 0, rounds_won = 0;
    double consumed_age_sum_s = 0.0;
    double win_sum = 0.0;
  };

  /// produce_until with s.mu already held; decide() calls this so the pool
  /// is current as of the request time.
  void produce_locked(Source& s, double now_s);

  LiveBrokerConfig cfg_;
  double max_storage_s_;
  WinCurve win_curve_;
  std::vector<std::unique_ptr<Source>> sources_;

  std::atomic<std::size_t> pending_{0};
  std::atomic<std::uint64_t> rejected_{0};

  // Hoisted qnet.live.* metrics (lock-free writes on the hot path).
  obs::Counter& m_requests_;
  obs::Counter& m_hits_;
  obs::Counter& m_fallbacks_;
  obs::Counter& m_rejected_;
  obs::Counter& m_rounds_won_;
  obs::Counter& m_generated_;
  obs::Counter& m_delivered_;
  obs::Counter& m_lost_fiber_;
  obs::Counter& m_expired_;
  obs::Counter& m_dropped_full_;
  obs::Histogram& m_consumed_age_;
};

}  // namespace ftl::qnet
