// Determinism/equivalence harness for the sharded Fig-4 engine.
//
// Three layers of guarantees, strongest first:
//   1. bit-identical determinism — same (seed, shard count) must reproduce
//      the integer counters exactly, on any thread count;
//   2. exact accounting — the p95 delay is the exact percentile, however
//      long the queues grow (lb_golden_test pins the counters themselves);
//   3. statistical physics equivalence — multi-shard runs are independent
//      sub-clusters at the same load, so conserved quantities are invariant
//      in the shard count and the CHSH win rate / queue curves must match
//      the single-shard run_lb_sim within confidence intervals.
#include "lb/sharded_simulator.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <vector>

#include "lb/simulator.hpp"
#include "lb/strategy.hpp"
#include "sim/sharded.hpp"
#include "util/stats.hpp"

namespace ftl::lb {
namespace {

ShardedLbConfig small_cfg(const std::string& source, std::size_t shards) {
  ShardedLbConfig cfg;
  cfg.num_balancers = 48;
  cfg.num_servers = 24;
  cfg.warmup_steps = 200;
  cfg.measure_steps = 800;
  cfg.seed = 42;
  cfg.num_shards = shards;
  cfg.source = source;
  return cfg;
}

// --- sharding primitives ---------------------------------------------------

TEST(ShardRange, PartitionsEveryItemExactlyOnce) {
  for (std::size_t total : {1u, 7u, 24u, 100u}) {
    for (std::size_t shards = 1; shards <= 5; ++shards) {
      std::size_t next = 0;
      for (std::size_t s = 0; s < shards; ++s) {
        const auto r = sim::shard_range(total, shards, s);
        EXPECT_EQ(r.begin, next);
        EXPECT_GE(r.size() + 1, total / shards);  // even split +/- 1
        EXPECT_LE(r.size(), total / shards + 1);
        next = r.end;
      }
      EXPECT_EQ(next, total);
    }
  }
}

TEST(ShardSeed, ShardZeroKeepsMasterSeed) {
  EXPECT_EQ(sim::shard_seed(42, 0), 42u);
  EXPECT_EQ(sim::shard_seed(0xdeadbeef, 0), 0xdeadbeefu);
}

TEST(ShardSeed, ShardsGetDistinctStreams) {
  std::vector<std::uint64_t> seeds;
  for (std::size_t s = 0; s < 16; ++s) seeds.push_back(sim::shard_seed(42, s));
  for (std::size_t i = 0; i < seeds.size(); ++i) {
    for (std::size_t j = i + 1; j < seeds.size(); ++j) {
      EXPECT_NE(seeds[i], seeds[j]) << i << " vs " << j;
    }
  }
}

TEST(ShardPool, RunsEveryShardExactlyOnce) {
  sim::ShardPool pool(4);
  EXPECT_EQ(pool.num_threads(), 4u);
  constexpr std::size_t kShards = 100;
  std::vector<std::atomic<int>> hits(kShards);
  pool.parallel_shards(kShards, [&](std::size_t s) {
    hits[s].fetch_add(1, std::memory_order_relaxed);
  });
  for (std::size_t s = 0; s < kShards; ++s) {
    EXPECT_EQ(hits[s].load(), 1) << "shard " << s;
  }
}

TEST(ShardPool, ReusableAcrossJobs) {
  sim::ShardPool pool(3);
  for (int round = 0; round < 5; ++round) {
    std::atomic<std::size_t> sum{0};
    pool.parallel_shards(17, [&](std::size_t s) {
      sum.fetch_add(s + 1, std::memory_order_relaxed);
    });
    EXPECT_EQ(sum.load(), 17u * 18u / 2u);
  }
}

// --- 1. bit-identical determinism ------------------------------------------

TEST(ShardedSim, SameSeedSameShardsIsBitIdentical) {
  for (const char* source : {"random", "quantum-chsh", "omniscient"}) {
    const ShardedLbConfig cfg = small_cfg(source, 4);
    sim::ShardPool pool(4);
    const ShardedLbResult r1 = run_sharded_lb_sim(cfg, &pool);
    const ShardedLbResult r2 = run_sharded_lb_sim(cfg, &pool);
    EXPECT_EQ(r1.counters, r2.counters) << source;
    ASSERT_EQ(r1.per_shard.size(), r2.per_shard.size());
    for (std::size_t s = 0; s < r1.per_shard.size(); ++s) {
      EXPECT_EQ(r1.per_shard[s], r2.per_shard[s]) << source << " shard " << s;
    }
    EXPECT_DOUBLE_EQ(r1.mean_queue_length, r2.mean_queue_length) << source;
    EXPECT_DOUBLE_EQ(r1.mean_delay, r2.mean_delay) << source;
  }
}

TEST(ShardedSim, ThreadCountDoesNotChangeResults) {
  const ShardedLbConfig cfg = small_cfg("quantum-chsh", 6);
  sim::ShardPool single(1);
  sim::ShardPool quad(4);
  sim::ShardPool wide(8);
  const ShardedLbResult r1 = run_sharded_lb_sim(cfg, &single);
  const ShardedLbResult r4 = run_sharded_lb_sim(cfg, &quad);
  const ShardedLbResult r8 = run_sharded_lb_sim(cfg, &wide);
  EXPECT_EQ(r1.counters, r4.counters);
  EXPECT_EQ(r1.counters, r8.counters);
  for (std::size_t s = 0; s < cfg.num_shards; ++s) {
    EXPECT_EQ(r1.per_shard[s], r4.per_shard[s]) << "shard " << s;
    EXPECT_EQ(r1.per_shard[s], r8.per_shard[s]) << "shard " << s;
  }
  // Distributional outputs merge in shard order, so they are exactly equal
  // too — thread scheduling must never reorder the merge.
  EXPECT_DOUBLE_EQ(r1.mean_queue_length, r4.mean_queue_length);
  EXPECT_DOUBLE_EQ(r1.mean_delay, r8.mean_delay);
}

// --- 2. exact accounting -----------------------------------------------------

TEST(ShardedSim, P95IsExactUnderOverload) {
  // Load 2.5 with random routing: queues grow without bound and about 9k
  // of the 109k measured delays exceed 512 steps. The p95 must come from
  // every delay, not from a clamped fixed-range histogram.
  ShardedLbConfig cfg;
  cfg.num_balancers = 100;
  cfg.num_servers = 40;
  cfg.warmup_steps = 200;
  cfg.measure_steps = 2000;
  cfg.seed = 42;
  const ShardedLbResult r = run_sharded_lb_sim(cfg);
  EXPECT_EQ(r.counters.served, 109172);
  EXPECT_EQ(r.p95_delay, 1304.0);
}

// --- 3. conservation and statistical physics equivalence -------------------

TEST(ShardedSim, ConservedQuantitiesAreShardCountInvariant) {
  // Deterministic arrivals: every balancer emits one request per measured
  // step, so `arrived` is exactly B * measure_steps for ANY shard count,
  // and everything that arrived is served or still queued.
  for (const char* source : {"random", "quantum-chsh"}) {
    for (std::size_t shards : {1u, 2u, 4u, 8u}) {
      const ShardedLbConfig cfg = small_cfg(source, shards);
      const ShardedLbResult r = run_sharded_lb_sim(cfg);
      const long long expected_arrived =
          static_cast<long long>(cfg.num_balancers) * cfg.measure_steps;
      EXPECT_EQ(r.counters.arrived, expected_arrived)
          << source << " shards=" << shards;
      EXPECT_EQ(r.counters.arrived,
                r.counters.served + r.counters.still_queued)
          << source << " shards=" << shards;
      // Every measured paired round is tallied won or lost.
      if (std::string(source) != "random") {
        EXPECT_EQ(r.counters.rounds_won + r.counters.rounds_lost,
                  static_cast<long long>(cfg.num_balancers / 2) *
                      cfg.measure_steps)
            << source << " shards=" << shards;
      }
      // Per-shard conservation as well (each shard is a closed system).
      for (const ShardedCounters& c : r.per_shard) {
        EXPECT_EQ(c.arrived, c.served + c.still_queued);
      }
    }
  }
}

TEST(ShardedSim, WinRateMatchesTsirelsonWithinCi) {
  ShardedLbConfig cfg = small_cfg("quantum-chsh", 4);
  cfg.measure_steps = 2000;
  const ShardedLbResult r = run_sharded_lb_sim(cfg);
  const auto won = static_cast<std::size_t>(r.counters.rounds_won);
  const auto rounds =
      static_cast<std::size_t>(r.counters.rounds_won + r.counters.rounds_lost);
  const double p_hat =
      static_cast<double>(won) / static_cast<double>(rounds);
  const double p_tsirelson = 0.5 * (1.0 + 1.0 / std::sqrt(2.0));
  // Wilson CI with a safety factor; the run is seeded so this never flakes.
  EXPECT_NEAR(p_hat, p_tsirelson,
              3.0 * util::wilson_halfwidth(won, rounds));
}

TEST(ShardedSim, MultiShardMatchesReferencePhysicsWithinCi) {
  // A sharded cluster is independent sub-clusters at the same load N/M, so
  // its Fig-4 observables must agree with the single-threaded engine's
  // statistically. Compare mean queue length per server against the
  // reference engine's CI over per-seed replicates.
  constexpr std::size_t kSeeds = 5;
  for (const char* source : {"random", "quantum-chsh"}) {
    util::Accumulator ref_mq;
    for (std::size_t i = 0; i < kSeeds; ++i) {
      LbConfig ref;
      ref.num_balancers = 48;
      ref.num_servers = 24;
      ref.warmup_steps = 200;
      ref.measure_steps = 800;
      ref.seed = 100 + i;
      ref_mq.add(run_lb_sim(ref, *make_strategy(source)).mean_queue_length);
    }

    util::Accumulator sharded_mq;
    for (std::size_t i = 0; i < kSeeds; ++i) {
      ShardedLbConfig cfg = small_cfg(source, 4);
      cfg.seed = 500 + i;
      sharded_mq.add(run_sharded_lb_sim(cfg).mean_queue_length);
    }

    // Two-sample check: the difference of means must sit inside the
    // combined 95% CI (seeded, so deterministic; 3x safety margin).
    const double diff = std::abs(ref_mq.mean() - sharded_mq.mean());
    const double tol =
        3.0 * (ref_mq.ci95_halfwidth() + sharded_mq.ci95_halfwidth()) + 1e-6;
    EXPECT_LE(diff, tol) << source << " ref=" << ref_mq.mean()
                         << " sharded=" << sharded_mq.mean();
  }
}

TEST(ShardedSim, QuantumBeatsRandomAtHighLoadWhenSharded) {
  // The headline Fig-4 ordering survives sharding: above the classical
  // stability point the quantum source keeps shorter queues than random.
  ShardedLbConfig quantum = small_cfg("quantum-chsh", 4);
  quantum.num_balancers = 64;
  quantum.num_servers = 48;  // load 4/3, inside the advantage region
  ShardedLbConfig random_cfg = quantum;
  random_cfg.source = "random";
  const ShardedLbResult rq = run_sharded_lb_sim(quantum);
  const ShardedLbResult rr = run_sharded_lb_sim(random_cfg);
  EXPECT_LT(rq.mean_queue_length, rr.mean_queue_length);
}

}  // namespace
}  // namespace ftl::lb
