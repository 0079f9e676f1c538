#include "lb/sharded_simulator.hpp"

#include <memory>
#include <utility>

#include "lb/server.hpp"
#include "lb/strategy.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/assert.hpp"
#include "util/stats.hpp"

namespace ftl::lb {

namespace {

/// counts[v] = how many times value v was seen.
using Counts = std::vector<std::uint64_t>;

void tally(Counts& counts, std::size_t v) {
  if (v >= counts.size()) counts.resize(v + 1, 0);
  ++counts[v];
}

void add_counts(Counts& into, const Counts& from) {
  if (from.size() > into.size()) into.resize(from.size(), 0);
  for (std::size_t v = 0; v < from.size(); ++v) into[v] += from[v];
}

std::uint64_t total(const Counts& counts) {
  std::uint64_t n = 0;
  for (std::uint64_t c : counts) n += c;
  return n;
}

/// Sum of every value seen: sum over v of v * counts[v].
std::uint64_t value_sum(const Counts& counts) {
  std::uint64_t sum = 0;
  for (std::size_t v = 0; v < counts.size(); ++v) sum += v * counts[v];
  return sum;
}

double ratio(std::uint64_t num, std::uint64_t den) {
  return den == 0 ? 0.0 : static_cast<double>(num) / static_cast<double>(den);
}

/// Everything a run, or one shard of it, measures: exact integer tallies
/// that merge by addition. One cache line per shard, since the pool's
/// workers store them side by side.
struct alignas(64) Tally {
  ShardedCounters counters;
  /// delays[t][d]: measured type-t requests served d steps after arriving.
  Counts delays[2];
  /// queue_lengths[q]: measured server-steps that ended with q queued.
  Counts queue_lengths;

  Tally& operator+=(const Tally& o) {
    counters += o.counters;
    add_counts(delays[0], o.delays[0]);
    add_counts(delays[1], o.delays[1]);
    add_counts(queue_lengths, o.queue_lengths);
    return *this;
  }

  [[nodiscard]] Counts all_delays() const {
    Counts all = delays[0];
    add_counts(all, delays[1]);
    return all;
  }
};

/// The C/E step loop; run_lb_sim is its one-shard case. Arrivals draw from
/// the seed's split(1), the strategy from split(2) and the burst phase from
/// split(3), balancer by balancer, so a run with a freshly built strategy
/// is deterministic in (cfg, seed). The tallies live in locals until the
/// end: written from the hot loop into the caller's adjacent per-shard
/// slots, they would make the pool's workers contend for cache lines.
Tally run_shard(const LbConfig& cfg, std::size_t num_balancers,
                std::size_t num_servers, std::uint64_t seed,
                LbStrategy& strategy) {
  util::Rng rng(seed);
  util::Rng arrivals_rng = rng.split(1);
  util::Rng strategy_rng = rng.split(2);
  util::Rng burst_rng = rng.split(3);

  ServerArray servers(num_servers);
  StepArrivals in;
  in.batch = cfg.batch_size;
  in.active.assign(num_balancers, 1);
  in.types.resize(num_balancers * cfg.batch_size);
  std::vector<std::uint32_t> targets(in.types.size());
  bool burst_high = true;

  long long arrived = 0;
  Rounds rounds;
  Counts delays[2];
  Counts queue_lengths;

  const long total_steps = cfg.warmup_steps + cfg.measure_steps;
  for (long step = 0; step < total_steps; ++step) {
    const bool measuring = step >= cfg.warmup_steps;

    // 1. Arrivals: each balancer draws its batch of request types. Under
    // the burst model a balancer may be inactive this step.
    double activity = 1.0;
    if (cfg.burst) {
      if (burst_rng.bernoulli(1.0 / cfg.burst->mean_dwell_steps)) {
        burst_high = !burst_high;
      }
      activity = burst_high ? cfg.burst->high_activity
                            : cfg.burst->low_activity;
    }
    for (std::size_t b = 0; b < num_balancers; ++b) {
      const bool active = activity >= 1.0 || arrivals_rng.bernoulli(activity);
      in.active[b] = active ? 1 : 0;
      if (!active) continue;
      for (std::size_t i = b * in.batch; i < (b + 1) * in.batch; ++i) {
        in.types[i] = arrivals_rng.bernoulli(cfg.p_colocate) ? TaskType::kC
                                                             : TaskType::kE;
      }
    }

    // 2. Routing: every decision is made before any request lands
    //    (simultaneous, communication-free balancers).
    const Rounds played = strategy.assign(in, targets, servers, strategy_rng);
    long long requests = 0;
    in.for_each_request([&](std::size_t b, std::size_t i) {
      FTL_ASSERT(targets[i] < num_servers);
      servers.enqueue(targets[i], in.types[i], static_cast<std::uint32_t>(b),
                      static_cast<std::int32_t>(step));
      ++requests;
    });
    if (measuring) {
      arrived += requests;
      rounds.won += played.won;
      rounds.lost += played.lost;
    }

    // 3. Service.
    Request served[2];
    for (std::size_t s = 0; s < num_servers; ++s) {
      const std::size_t n = servers.step(s, cfg.policy, served);
      if (!measuring) continue;
      for (std::size_t i = 0; i < n; ++i) {
        if (served[i].arrival_step < cfg.warmup_steps) continue;
        tally(delays[static_cast<std::size_t>(served[i].type)],
              static_cast<std::size_t>(step - served[i].arrival_step));
      }
      tally(queue_lengths, servers.queue_length(s));
    }
  }

  Tally out;
  for (std::size_t s = 0; s < num_servers; ++s) {
    servers.for_each_queued(s, [&](TaskType, const ServerArray::Slot& slot) {
      if (slot.arrival_step >= cfg.warmup_steps) ++out.counters.still_queued;
    });
  }
  out.counters.arrived = arrived;
  out.counters.served =
      static_cast<long long>(total(delays[0]) + total(delays[1]));
  out.counters.rounds_won = rounds.won;
  out.counters.rounds_lost = rounds.lost;
  out.delays[0] = std::move(delays[0]);
  out.delays[1] = std::move(delays[1]);
  out.queue_lengths = std::move(queue_lengths);
  return out;
}

void check_config(const LbConfig& cfg) {
  FTL_ASSERT(cfg.num_balancers >= 1 && cfg.num_servers >= 2);
  FTL_ASSERT(cfg.p_colocate >= 0.0 && cfg.p_colocate <= 1.0);
  FTL_ASSERT(cfg.batch_size >= 1);
  FTL_ASSERT(cfg.warmup_steps >= 0 && cfg.measure_steps > 0);
}

/// The means and the exact p95 of a (merged) tally: one division each.
LbResult summarize(const Tally& t, const LbConfig& cfg) {
  const Counts all = t.all_delays();
  const auto server_steps = static_cast<std::uint64_t>(cfg.measure_steps) *
                            static_cast<std::uint64_t>(cfg.num_servers);
  LbResult out;
  out.mean_queue_length = ratio(value_sum(t.queue_lengths), server_steps);
  out.mean_delay = ratio(value_sum(all), total(all));
  out.p95_delay =
      total(all) == 0 ? 0.0 : util::percentile_of_counts(all, 0.95);
  out.mean_delay_c = ratio(value_sum(t.delays[0]), total(t.delays[0]));
  out.mean_delay_e = ratio(value_sum(t.delays[1]), total(t.delays[1]));
  out.throughput = ratio(total(all), server_steps);
  out.arrived = t.counters.arrived;
  out.served = t.counters.served;
  out.still_queued = t.counters.still_queued;
  return out;
}

/// run_lb_sim's metric families, written once per run.
void export_lb_metrics(const LbStrategy& strategy, const Tally& t,
                       const LbConfig& cfg) {
  obs::Registry& reg = obs::registry();
  const obs::Labels label{{"strategy", strategy.name()}};
  reg.counter("lb.requests.arrived", label)
      .inc(static_cast<std::uint64_t>(t.counters.arrived));
  reg.counter("lb.requests.served", label)
      .inc(static_cast<std::uint64_t>(t.counters.served));
  reg.counter("lb.steps", label)
      .inc(static_cast<std::uint64_t>(cfg.measure_steps));
  obs::Histogram& depth =
      reg.histogram("lb.queue_depth", 0.0, 256.0, 64, label);
  for (std::size_t q = 0; q < t.queue_lengths.size(); ++q) {
    depth.observe(static_cast<double>(q), t.queue_lengths[q]);
  }
  if (const correlate::PairedDecisionSource* src = strategy.source()) {
    const obs::Labels source_label{{"source", src->name()}};
    reg.counter("lb.chsh.rounds_won", source_label)
        .inc(static_cast<std::uint64_t>(t.counters.rounds_won));
    reg.counter("lb.chsh.rounds_lost", source_label)
        .inc(static_cast<std::uint64_t>(t.counters.rounds_lost));
  }
}

}  // namespace

LbResult run_lb_sim(const LbConfig& cfg, LbStrategy& strategy) {
  check_config(cfg);
  const obs::ScopedSpan span("lb.run_lb_sim", "lb");
  const Tally t =
      run_shard(cfg, cfg.num_balancers, cfg.num_servers, cfg.seed, strategy);
  export_lb_metrics(strategy, t, cfg);
  return summarize(t, cfg);
}

ShardedLbResult run_sharded_lb_sim(const ShardedLbConfig& cfg,
                                   sim::ShardPool* pool) {
  check_config(cfg);
  FTL_ASSERT(cfg.num_shards >= 1);
  const bool paired = cfg.source != "random";
  for (std::size_t shard = 0; shard < cfg.num_shards; ++shard) {
    const auto b = sim::shard_range(cfg.num_balancers, cfg.num_shards, shard);
    const auto s = sim::shard_range(cfg.num_servers, cfg.num_shards, shard);
    FTL_ASSERT_MSG(b.size() >= 1 && s.size() >= 2,
                   "every shard needs >= 1 balancer and >= 2 servers");
    FTL_ASSERT_MSG(!paired || b.size() % 2 == 0,
                   "paired sources need an even balancer count per shard");
  }

  const obs::ScopedSpan span("lb.run_sharded_lb_sim", "lb");

  // Per-shard strategies, created up front in shard order (ChshSource
  // builds its outcome table once per shard, not per round — the rounds
  // sample that precomputed table).
  std::vector<std::unique_ptr<LbStrategy>> strategies(cfg.num_shards);
  for (auto& s : strategies) s = make_strategy(cfg.source, cfg.visibility);

  std::vector<Tally> tallies(cfg.num_shards);
  const auto job = [&](std::size_t shard) {
    tallies[shard] = run_shard(
        cfg, sim::shard_range(cfg.num_balancers, cfg.num_shards, shard).size(),
        sim::shard_range(cfg.num_servers, cfg.num_shards, shard).size(),
        sim::shard_seed(cfg.seed, shard), *strategies[shard]);
  };
  if (pool != nullptr) {
    pool->parallel_shards(cfg.num_shards, job);
  } else {
    sim::ShardPool inline_pool(1);
    inline_pool.parallel_shards(cfg.num_shards, job);
  }

  // Shard-ordered merge of integer tallies: the totals, and everything
  // derived from them, do not depend on how the pool scheduled the shards.
  ShardedLbResult out;
  out.per_shard.reserve(cfg.num_shards);
  Tally merged;
  for (const Tally& t : tallies) {
    out.per_shard.push_back(t.counters);
    merged += t;
  }
  out.counters = merged.counters;
  const LbResult summary = summarize(merged, cfg);
  out.mean_queue_length = summary.mean_queue_length;
  out.mean_delay = summary.mean_delay;
  out.p95_delay = summary.p95_delay;
  out.throughput = summary.throughput;

  const obs::Labels label{{"source", cfg.source}};
  obs::Registry& reg = obs::registry();
  reg.counter("lb.sharded.requests.arrived", label)
      .inc(static_cast<std::uint64_t>(out.counters.arrived));
  reg.counter("lb.sharded.requests.served", label)
      .inc(static_cast<std::uint64_t>(out.counters.served));
  reg.counter("lb.sharded.rounds_won", label)
      .inc(static_cast<std::uint64_t>(out.counters.rounds_won));
  reg.counter("lb.sharded.rounds_lost", label)
      .inc(static_cast<std::uint64_t>(out.counters.rounds_lost));
  return out;
}

}  // namespace ftl::lb
