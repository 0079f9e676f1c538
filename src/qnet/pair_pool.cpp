#include "qnet/pair_pool.hpp"

#include <algorithm>

#include "qnet/decoherence.hpp"
#include "util/assert.hpp"

namespace ftl::qnet {

double storage_limit_s(const QnetConfig& cfg, double v0) {
  return std::min(cfg.max_storage_s,
                  useful_storage_window_s(v0, cfg.memory_t1_s, cfg.memory_t2_s));
}

PairPool::PairPool(const QnetConfig& cfg, double max_storage_s,
                   util::Rng& rng)
    : ring_(cfg.memory_slots),
      next_emit_s_(rng.exponential(cfg.pair_rate_hz)),
      pair_rate_hz_(cfg.pair_rate_hz),
      deliver_p_(cfg.pair_delivery_probability()),
      delay_s_(cfg.propagation_delay_s()),
      max_storage_s_(max_storage_s) {
  FTL_ASSERT_MSG(!ring_.empty(), "a pair pool needs at least one QNIC slot");
}

void PairPool::evict_expired(double now_s) {
  const std::size_t cap = ring_.size();
  while (count_ > 0 && now_s - ring_[head_] > max_storage_s_) {
    head_ = (head_ + 1) % cap;
    --count_;
    ++tallies_.expired;
  }
}

void PairPool::produce_until(double now_s, util::Rng& rng) {
  const std::size_t cap = ring_.size();
  while (next_emit_s_ + delay_s_ <= now_s) {
    ++tallies_.generated;
    if (rng.bernoulli(deliver_p_)) {
      ++tallies_.delivered;
      const double arrival = next_emit_s_ + delay_s_;
      // Pairs already past the storage limit at this arrival expired before
      // it landed; only a store full of live pairs drops one.
      evict_expired(arrival);
      if (count_ == cap) {
        head_ = (head_ + 1) % cap;  // overwrite the oldest, most decohered
        --count_;
        ++tallies_.dropped_full;
      }
      ring_[(head_ + count_) % cap] = arrival;
      ++count_;
    } else {
      ++tallies_.lost_fiber;
    }
    next_emit_s_ += rng.exponential(pair_rate_hz_);
  }
  evict_expired(now_s);
}

std::optional<double> PairPool::take_freshest(double now_s) {
  if (count_ == 0) return std::nullopt;
  // Freshest-first: the newest pair has the highest residual visibility;
  // older pairs stay for later requests (or expire).
  --count_;
  return std::max(0.0, now_s - ring_[(head_ + count_) % ring_.size()]);
}

}  // namespace ftl::qnet
