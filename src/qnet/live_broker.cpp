#include "qnet/live_broker.hpp"

#include <optional>

#include "util/assert.hpp"

namespace ftl::qnet {

LiveBroker::LiveBroker(const LiveBrokerConfig& cfg, std::uint64_t seed)
    : cfg_(cfg),
      max_storage_s_(storage_limit_s(cfg.qnet, cfg.qnet.source_visibility)),
      win_curve_(cfg.qnet.source_visibility, cfg.qnet.memory_t1_s,
                 cfg.qnet.memory_t2_s, max_storage_s_),
      m_requests_(obs::registry().counter("qnet.live.requests")),
      m_hits_(obs::registry().counter("qnet.live.hits")),
      m_fallbacks_(obs::registry().counter("qnet.live.fallbacks")),
      m_rejected_(obs::registry().counter("qnet.live.rejected")),
      m_rounds_won_(obs::registry().counter("qnet.live.rounds_won")),
      m_generated_(obs::registry().counter("qnet.live.pairs.generated")),
      m_delivered_(obs::registry().counter("qnet.live.pairs.delivered")),
      m_lost_fiber_(obs::registry().counter("qnet.live.pairs.lost_fiber")),
      m_expired_(obs::registry().counter("qnet.live.pairs.expired")),
      m_dropped_full_(obs::registry().counter("qnet.live.pairs.dropped_full")),
      m_consumed_age_(obs::registry().histogram("qnet.live.consumed.age_s",
                                                0.0, max_storage_s_, 50)) {
  FTL_ASSERT_MSG(cfg.sources > 0, "LiveBroker needs at least one source");
  FTL_ASSERT_MSG(cfg.qnet.pair_rate_hz > 0.0, "pair rate must be positive");
  FTL_ASSERT_MSG(max_storage_s_ > 0.0,
                 "source visibility too low for any quantum advantage");
  util::Rng master(seed);
  sources_.reserve(cfg.sources);
  for (std::size_t i = 0; i < cfg.sources; ++i) {
    sources_.push_back(
        std::make_unique<Source>(cfg_.qnet, max_storage_s_, master.split(i)));
  }
}

void LiveBroker::produce_until(std::size_t source, double now_s) {
  FTL_ASSERT(source < sources_.size());
  Source& s = *sources_[source];
  const std::lock_guard<std::mutex> lock(s.mu);
  produce_locked(s, now_s);
}

void LiveBroker::produce_locked(Source& s, double now_s) {
  const PoolTallies before = s.pool.tallies();
  s.pool.produce_until(now_s, s.rng);
  const PoolTallies& after = s.pool.tallies();
  // At serving rates most calls resolve no emission, so the shared
  // registry only sees the tallies that moved.
  const auto flush = [](obs::Counter& c, std::uint64_t now,
                        std::uint64_t then) {
    if (now != then) c.inc(now - then);
  };
  if (after.generated != before.generated) {
    m_generated_.inc(after.generated - before.generated);
    flush(m_delivered_, after.delivered, before.delivered);
    flush(m_lost_fiber_, after.lost_fiber, before.lost_fiber);
    flush(m_dropped_full_, after.dropped_full, before.dropped_full);
  }
  flush(m_expired_, after.expired, before.expired);
}

LiveBroker::Decision LiveBroker::decide(std::size_t source, std::uint8_t input,
                                        double now_s) {
  FTL_ASSERT(source < sources_.size());
  Source& s = *sources_[source];
  Decision d;
  const std::lock_guard<std::mutex> lock(s.mu);
  ++s.requests;
  m_requests_.inc();
  // Resolve emissions up to the request time before consuming: the pool
  // must reflect every pair that has physically arrived by now_s, not just
  // those the caller's last produce_until saw. (Idempotent when callers
  // produce and decide at the same time; essential when a refill thread
  // runs far less often than the storage window.) Ends with expiry
  // eviction, so the pool only holds live pairs.
  produce_locked(s, now_s);
  if (const std::optional<double> age = s.pool.take_freshest(now_s)) {
    d.quantum = true;
    d.pair_age_s = *age;
    d.win_probability = win_curve_.at(*age);
    d.output = static_cast<std::uint8_t>(s.rng.bernoulli(0.5) ? 1 : 0);
    ++s.hits;
    s.consumed_age_sum_s += *age;
    m_hits_.inc();
    m_consumed_age_.observe(*age);
  } else {
    // Classical fallback: the pre-agreed deterministic strategy (output
    // your input) wins the flipped-CHSH game with probability 3/4.
    d.quantum = false;
    d.win_probability = 0.75;
    d.output = static_cast<std::uint8_t>(input & 1u);
    ++s.fallbacks;
    m_fallbacks_.inc();
  }
  d.round_won = s.rng.bernoulli(d.win_probability);
  if (d.round_won) {
    ++s.rounds_won;
    m_rounds_won_.inc();
  }
  s.win_sum += d.win_probability;
  return d;
}

bool LiveBroker::try_admit(std::size_t n) {
  const std::size_t prev = pending_.fetch_add(n, std::memory_order_relaxed);
  if (prev + n > cfg_.max_pending) {
    pending_.fetch_sub(n, std::memory_order_relaxed);
    rejected_.fetch_add(n, std::memory_order_relaxed);
    m_rejected_.inc(n);
    return false;
  }
  return true;
}

void LiveBroker::release(std::size_t n) {
  pending_.fetch_sub(n, std::memory_order_relaxed);
}

LiveBrokerStats LiveBroker::stats() const {
  LiveBrokerStats out;
  out.rejected = rejected_.load(std::memory_order_relaxed);
  for (const auto& sp : sources_) {
    Source& s = *sp;
    const std::lock_guard<std::mutex> lock(s.mu);
    out.requests += s.requests;
    out.hits += s.hits;
    out.fallbacks += s.fallbacks;
    out.rounds_won += s.rounds_won;
    const PoolTallies& t = s.pool.tallies();
    out.pairs_generated += t.generated;
    out.pairs_delivered += t.delivered;
    out.pairs_lost_fiber += t.lost_fiber;
    out.pairs_expired += t.expired;
    out.pairs_dropped_full += t.dropped_full;
    out.pairs_in_memory += s.pool.size();
    out.consumed_age_sum_s += s.consumed_age_sum_s;
    out.win_sum += s.win_sum;
  }
  return out;
}

}  // namespace ftl::qnet
