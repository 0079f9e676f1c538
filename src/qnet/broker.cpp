#include "qnet/broker.hpp"

#include <optional>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "qnet/decoherence.hpp"
#include "qnet/pair_pool.hpp"
#include "util/assert.hpp"

namespace ftl::qnet {

BrokerStats simulate_pair_supply(const QnetConfig& cfg, double request_rate_hz,
                                 double duration_s, util::Rng& rng) {
  FTL_ASSERT(cfg.pair_rate_hz > 0.0 && request_rate_hz > 0.0);
  const obs::ScopedSpan span("qnet.simulate_pair_supply", "qnet");
  const double max_storage_s = storage_limit_s(cfg, cfg.source_visibility);
  FTL_ASSERT_MSG(max_storage_s > 0.0,
                 "source visibility too low for any quantum advantage");
  const WinCurve win_curve(cfg.source_visibility, cfg.memory_t1_s,
                           cfg.memory_t2_s, max_storage_s);

  // Constructing the pool draws the first emission time, so on the shared
  // stream it precedes the first request time.
  PairPool pool(cfg, max_storage_s, rng);
  BrokerStats stats;
  double consumed_age_sum = 0.0;
  double win_sum = 0.0;
  for (double now = rng.exponential(request_rate_hz); now <= duration_s;
       now += rng.exponential(request_rate_hz)) {
    pool.produce_until(now, rng);
    ++stats.requests;
    if (const std::optional<double> age = pool.take_freshest(now)) {
      ++stats.pair_hits;
      consumed_age_sum += *age;
      win_sum += win_curve.at(*age);
    } else {
      win_sum += 0.75;  // classical fallback strategy
    }
  }
  pool.produce_until(duration_s, rng);

  const PoolTallies& t = pool.tallies();
  stats.pairs_generated = t.generated;
  stats.pairs_delivered = t.delivered;
  stats.pairs_lost_fiber = t.lost_fiber;
  stats.pairs_expired = t.expired;
  stats.pairs_dropped_full = t.dropped_full;
  stats.pairs_in_memory = pool.size();
  FTL_ASSERT_MSG(stats.conservation_holds(),
                 "pair-conservation identity violated at stats boundary");
  if (stats.pair_hits > 0) {
    stats.mean_consumed_age_s =
        consumed_age_sum / static_cast<double>(stats.pair_hits);
  }
  if (stats.requests > 0) {
    stats.mean_chsh_win = win_sum / static_cast<double>(stats.requests);
  }

  obs::Registry& reg = obs::registry();
  reg.counter("qnet.requests").inc(stats.requests);
  reg.counter("qnet.pair_hits").inc(stats.pair_hits);
  reg.counter("qnet.pair_misses").inc(stats.requests - stats.pair_hits);
  reg.counter("qnet.pairs.generated").inc(t.generated);
  reg.counter("qnet.pairs.delivered").inc(t.delivered);
  reg.counter("qnet.pairs.expired").inc(t.expired);
  reg.counter("qnet.pairs.dropped_full").inc(t.dropped_full);
  return stats;
}

}  // namespace ftl::qnet
