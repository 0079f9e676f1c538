// The Figure-2 pair-supply model seen through its three callers:
// qnet::LiveBroker (serving path), qnet::simulate_pair_supply (batch
// provisioning) and core::CorrelatedPair (the endpoint primitive behind
// SupplyAwareSource).
//
// Two groups:
//  * Golden seed-42 outputs: every integer the callers report plus the bit
//    patterns of their double sums, so any change to an RNG draw, the
//    eviction order or the accounting shows up as a changed number. The
//    LiveBroker rows run with fiber (arrival-time emission resolution is
//    its model); the batch and endpoint rows run at fiber_km = 0, where no
//    photon is ever in flight.
//  * A closed form none of the callers shares: with no loss, no expiry and
//    Poisson requests at rate lambda, pool occupancy is a birth-death chain
//    on {0..K}, so the hit fraction and the full-pool drop fraction are
//    known exactly.
//
// A failing golden row prints the values the code produced in the table's
// own syntax.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "core/correlated_pair.hpp"
#include "core/supply_source.hpp"
#include "lb/simulator.hpp"
#include "lb/strategy.hpp"
#include "qnet/broker.hpp"
#include "qnet/live_broker.hpp"
#include "util/rng.hpp"

namespace ftl {
namespace {

constexpr std::uint64_t kSeed = 42;

struct Golden {
  const char* name;
  std::vector<std::uint64_t> values;
};

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

std::string format_row(const std::string& name,
                       const std::vector<std::uint64_t>& v) {
  std::string out = "{\"" + name + "\", {";
  char buf[32];
  for (std::size_t i = 0; i < v.size(); ++i) {
    // Large values are double bit patterns; print them in hex.
    std::snprintf(buf, sizeof buf, v[i] > (1ULL << 40) ? "0x%llxULL" : "%llu",
                  static_cast<unsigned long long>(v[i]));
    out += (i == 0 ? "" : ", ") + std::string(buf);
  }
  return out + "}},";
}

template <std::size_t N>
void expect_golden(const Golden (&table)[N], const std::string& name,
                   const std::vector<std::uint64_t>& got) {
  for (const Golden& row : table) {
    if (name != row.name) continue;
    if (row.values != got) {
      ADD_FAILURE() << "golden row changed; want\n"
                    << format_row(name, row.values) << "\ngot\n"
                    << format_row(name, got);
    }
    return;
  }
  ADD_FAILURE() << "no golden row for " << name << "; got\n"
                << format_row(name, got);
}

// --- LiveBroker, stepped mode ----------------------------------------------

qnet::LiveBrokerConfig live_cfg(const std::string& kind) {
  qnet::LiveBrokerConfig cfg;
  if (kind == "starved") {
    cfg.qnet.pair_rate_hz = 5e3;
    cfg.qnet.fiber_km = 0.5;
  } else if (kind == "lossy") {
    cfg.qnet.pair_rate_hz = 1e5;
    cfg.qnet.fiber_km = 25.0;
    cfg.sources = 2;
  } else if (kind == "expiring") {
    cfg.qnet.pair_rate_hz = 2e4;
    cfg.qnet.memory_t2_s = 20e-6;
    cfg.qnet.memory_slots = 4;
  } else {  // full
    cfg.qnet.pair_rate_hz = 1e5;
    cfg.qnet.fiber_km = 0.0;
    cfg.qnet.memory_slots = 1;
    cfg.sources = 3;
  }
  return cfg;
}

/// Request k goes to source k % sources at t = (k + 1) / 1e4 s; every third
/// request is preceded by a produce_until halfway since the previous one.
qnet::LiveBrokerStats drive_stepped(qnet::LiveBroker& broker,
                                    std::size_t requests) {
  const std::size_t sources = broker.config().sources;
  const double dt = 1e-4;
  for (std::size_t k = 0; k < requests; ++k) {
    const std::size_t src = k % sources;
    const double t = static_cast<double>(k + 1) * dt;
    if (k % 3 == 0) broker.produce_until(src, t - 0.5 * dt);
    (void)broker.decide(src, static_cast<std::uint8_t>((k / 3) & 1u), t);
  }
  return broker.stats();
}

// Fields: requests, hits, fallbacks, rejected, rounds_won, pairs_generated,
// pairs_delivered, pairs_lost_fiber, pairs_expired, pairs_dropped_full,
// pairs_in_memory, bits(consumed_age_sum_s), bits(win_sum).
// clang-format off
const Golden kLiveGolden[] = {
    {"starved", {20000, 2665, 17335, 0, 15045, 9999, 9529, 470, 6864, 0, 0, 0x3fa396c6fe52940cULL, 0x40cd890d2254f25aULL}},
    {"lossy", {20000, 5119, 14881, 0, 15335, 399178, 40115, 359063, 34996, 0, 0, 0x3fb2897f510d203aULL, 0x40cdc2e2b08f623cULL}},
    {"expiring", {20000, 2618, 17382, 0, 15005, 39858, 38025, 1833, 35406, 1, 0, 0x3f83a5eee93afe62ULL, 0x40cd85278a74c2c1ULL}},
    {"full", {20000, 18998, 1002, 0, 16273, 599652, 599652, 0, 27612, 553042, 0, 0x3fc46b1843bc807aULL, 0x40cfba64b0f9b4daULL}},
};
// clang-format on

TEST(PairPoolGolden, LiveBrokerStepped) {
  for (const char* kind : {"starved", "lossy", "expiring", "full"}) {
    qnet::LiveBroker broker(live_cfg(kind), kSeed);
    const qnet::LiveBrokerStats s = drive_stepped(broker, 20000);
    EXPECT_TRUE(s.conservation_holds()) << kind;
    expect_golden(kLiveGolden, kind,
                  {s.requests, s.hits, s.fallbacks, s.rejected, s.rounds_won,
                   s.pairs_generated, s.pairs_delivered, s.pairs_lost_fiber,
                   s.pairs_expired, s.pairs_dropped_full, s.pairs_in_memory,
                   bits(s.consumed_age_sum_s), bits(s.win_sum)});
  }
}

// --- simulate_pair_supply, CorrelatedPair, run_lb_sim at 0 km ---------------

// simulate_pair_supply fields: requests, pair_hits, pairs_generated,
// pairs_delivered, pairs_lost_fiber, pairs_dropped_full,
// pairs_expired + pairs_in_memory, bits(mean_consumed_age_s),
// bits(mean_chsh_win). Expired and in-memory are one sum: a pair that went
// stale after the last request may be counted under either.
//
// CorrelatedPair fields: rounds, quantum_rounds, fallback_rounds, wins, and
// an FNV-1a hash of every output bit in call order. Rows cover supply at two
// pair rates and fresh pairs (no supply), detector efficiency 1 and 0.8, and
// either endpoint deciding first.
//
// run_lb_sim fields: arrived, served, still_queued, bits of
// mean_queue_length, mean_delay, p95_delay, mean_delay_c, mean_delay_e and
// throughput, then the SupplyAwareSource's rounds, quantum_rounds,
// fallback_rounds and wins.
// clang-format off
const Golden kZeroFiberGolden[] = {
    {"supply/rate100000", {4916, 4611, 50064, 50064, 0, 419, 45034, 0x3ee199b1c13b5569ULL, 0x3fe9f82f72f32fb6ULL}},
    {"supply/rate5000", {4970, 584, 2476, 2476, 0, 0, 1892, 0x3eec4ec563b9c49eULL, 0x3fe82ea679e46a5fULL}},
    {"pair/rate8000", {20000, 3773, 16227, 15184, 0x8825a7fd3a3dd875ULL}},
    {"pair/rate8000/bob_first", {20000, 3773, 16227, 15188, 0xf0be4a67312b440fULL}},
    {"pair/rate8000/eff0.8", {20000, 3744, 16256, 14875, 0x6bc1b4237c4e49a6ULL}},
    {"pair/rate8000/eff0.8/bob_first", {20000, 3744, 16256, 14875, 0xd1474d554c78774eULL}},
    {"pair/rate50000", {20000, 14544, 5456, 15844, 0xe589ad13c1cc3d89ULL}},
    {"pair/rate50000/bob_first", {20000, 14544, 5456, 15847, 0x4f2ddb244866536ULL}},
    {"pair/rate50000/eff0.8", {20000, 14512, 5488, 14387, 0x594fb9156b07a95cULL}},
    {"pair/rate50000/eff0.8/bob_first", {20000, 14512, 5488, 14365, 0x2021da31ac25e340ULL}},
    {"pair/fresh", {20000, 20000, 0, 16938, 0xcdd5720dee23f2f5ULL}},
    {"pair/fresh/bob_first", {20000, 20000, 0, 16938, 0xcdd5720dee23f2f5ULL}},
    {"pair/fresh/eff0.8", {20000, 20000, 0, 14637, 0x239ee57129d1d7a4ULL}},
    {"pair/fresh/eff0.8/bob_first", {20000, 20000, 0, 14770, 0xb405dce0ecfb2d9dULL}},
    {"run_lb_sim/supply", {8000, 7202, 798, 0x403dabe147ae147bULL, 0x4035288ec05f8bfbULL, 0x4054400000000000ULL, 0x3fb027b01d82f520ULL, 0x4047f136b697a665ULL, 0x3ff20147ae147ae1ULL, 4500, 534, 3966, 3432}},
};
// clang-format on

TEST(PairPoolGolden, SimulatePairSupplyAtZeroKm) {
  for (const double pair_rate : {1e5, 5e3}) {
    qnet::QnetConfig cfg;
    cfg.pair_rate_hz = pair_rate;
    cfg.fiber_km = 0.0;
    util::Rng rng(kSeed);
    const qnet::BrokerStats s = qnet::simulate_pair_supply(cfg, 1e4, 0.5, rng);
    EXPECT_TRUE(s.conservation_holds());
    expect_golden(kZeroFiberGolden,
                  "supply/rate" + std::to_string(static_cast<long>(pair_rate)),
                  {s.requests, s.pair_hits, s.pairs_generated,
                   s.pairs_delivered, s.pairs_lost_fiber, s.pairs_dropped_full,
                   s.pairs_expired + s.pairs_in_memory,
                   bits(s.mean_consumed_age_s), bits(s.mean_chsh_win)});
  }
}

/// pair_rate_hz = 0 plays every round on a fresh pair (no supply).
core::PairConfig supply_pair_cfg(double pair_rate_hz, std::uint64_t seed) {
  core::PairConfig pc;
  pc.backend = core::Backend::kQuantum;
  pc.visibility = 0.98;
  if (pair_rate_hz > 0.0) {
    qnet::QnetConfig supply;
    supply.pair_rate_hz = pair_rate_hz;
    supply.fiber_km = 0.0;
    pc.supply = supply;
  }
  pc.round_rate_hz = 1e4;
  pc.seed = seed;
  return pc;
}

TEST(PairPoolGolden, CorrelatedPairAtZeroKm) {
  for (const double pair_rate : {8e3, 5e4, 0.0}) {
    for (const double efficiency : {1.0, 0.8}) {
      for (const int first : {0, 1}) {
        core::PairConfig pc = supply_pair_cfg(pair_rate, kSeed);
        pc.detector_efficiency = efficiency;
        core::CorrelatedPair pair(pc);
        util::Rng inputs(7);
        std::uint64_t hash = 1469598103934665603ULL;
        for (int r = 0; r < 20000; ++r) {
          const int in[2] = {inputs.bernoulli(0.5) ? 1 : 0,
                             inputs.bernoulli(0.5) ? 1 : 0};
          for (const int endpoint : {first, 1 - first}) {
            const int out = pair.decide(endpoint, in[endpoint]);
            hash = (hash ^ static_cast<std::uint64_t>(out)) * 1099511628211ULL;
          }
        }
        std::string name =
            pair_rate > 0.0
                ? "pair/rate" + std::to_string(static_cast<long>(pair_rate))
                : "pair/fresh";
        if (efficiency < 1.0) name += "/eff0.8";
        if (first == 1) name += "/bob_first";
        const core::PairStats& s = pair.stats();
        expect_golden(kZeroFiberGolden, name,
                      {s.rounds, s.quantum_rounds, s.fallback_rounds, s.wins,
                       hash});
      }
    }
  }
}

TEST(PairPoolGolden, SupplyAwareRunLbSimAtZeroKm) {
  lb::LbConfig cfg;
  cfg.num_balancers = 20;
  cfg.num_servers = 16;
  cfg.warmup_steps = 50;
  cfg.measure_steps = 400;
  cfg.seed = kSeed;
  auto source =
      std::make_unique<core::SupplyAwareSource>(supply_pair_cfg(5e3, kSeed + 17));
  const core::SupplyAwareSource* src = source.get();
  lb::PairedStrategy strategy(std::move(source));
  const lb::LbResult r = lb::run_lb_sim(cfg, strategy);
  const core::PairStats& s = src->stats();
  expect_golden(kZeroFiberGolden, "run_lb_sim/supply",
                {static_cast<std::uint64_t>(r.arrived),
                 static_cast<std::uint64_t>(r.served),
                 static_cast<std::uint64_t>(r.still_queued),
                 bits(r.mean_queue_length), bits(r.mean_delay),
                 bits(r.p95_delay), bits(r.mean_delay_c),
                 bits(r.mean_delay_e), bits(r.throughput), s.rounds,
                 s.quantum_rounds, s.fallback_rounds, s.wins});
}

// --- birth-death closed form -------------------------------------------------

constexpr double kRequestRate = 1e4;
constexpr std::size_t kRequests = 20000;

/// Lossless, expiry-free supply at rho * kRequestRate pairs/s into K slots:
/// T1/T2 are hours, so the useful window dwarfs the two-second run.
qnet::QnetConfig birth_death_supply(double rho, std::size_t slots) {
  qnet::QnetConfig q;
  q.pair_rate_hz = rho * kRequestRate;
  q.fiber_km = 0.0;
  q.memory_t1_s = 1e4;
  q.memory_t2_s = 1e3;
  q.max_storage_s = 1e3;
  q.memory_slots = slots;
  return q;
}

/// Stationary occupancy pi_n = rho^n / sum_m rho^m on {0..K}: a request
/// (PASTA) hits unless the pool is empty, a delivery drops the oldest pair
/// when the pool is full.
double expected_hit_fraction(double rho, std::size_t k) {
  if (rho == 1.0) {
    return static_cast<double>(k) / static_cast<double>(k + 1);
  }
  return 1.0 - (1.0 - rho) / (1.0 - std::pow(rho, static_cast<double>(k + 1)));
}

double expected_drop_fraction(double rho, std::size_t k) {
  if (rho == 1.0) return 1.0 / static_cast<double>(k + 1);
  return std::pow(rho, static_cast<double>(k)) * (1.0 - rho) /
         (1.0 - std::pow(rho, static_cast<double>(k + 1)));
}

double ratio(std::uint64_t num, std::uint64_t den) {
  return static_cast<double>(num) / static_cast<double>(den);
}

TEST(PairPoolClosedForm, BirthDeathChainAllCallers) {
  constexpr double kTol = 0.02;
  for (const std::size_t k : {1u, 4u, 8u}) {
    for (const double rho : {0.5, 1.0, 2.0}) {
      const double hit = expected_hit_fraction(rho, k);
      const double drop = expected_drop_fraction(rho, k);
      const std::string at =
          "K=" + std::to_string(k) + " rho=" + std::to_string(rho);

      // Batch broker: Poisson requests for kRequests / rate seconds.
      util::Rng rng(kSeed);
      const qnet::BrokerStats b = qnet::simulate_pair_supply(
          birth_death_supply(rho, k), kRequestRate,
          static_cast<double>(kRequests) / kRequestRate, rng);
      EXPECT_EQ(b.pairs_lost_fiber, 0u) << at;
      EXPECT_NEAR(b.hit_fraction(), hit, kTol) << "supply " << at;
      EXPECT_NEAR(ratio(b.pairs_dropped_full, b.pairs_delivered), drop, kTol)
          << "supply " << at;

      // Serving path, driven at Poisson request times.
      qnet::LiveBrokerConfig lc;
      lc.qnet = birth_death_supply(rho, k);
      qnet::LiveBroker broker(lc, kSeed);
      util::Rng arrivals(kSeed + 1);
      double t = 0.0;
      for (std::size_t i = 0; i < kRequests; ++i) {
        t += arrivals.exponential(kRequestRate);
        (void)broker.decide(0, static_cast<std::uint8_t>(i & 1u), t);
      }
      const qnet::LiveBrokerStats l = broker.stats();
      EXPECT_EQ(l.pairs_expired, 0u) << at;
      EXPECT_NEAR(l.hit_fraction(), hit, kTol) << "live " << at;
      EXPECT_NEAR(ratio(l.pairs_dropped_full, l.pairs_delivered), drop, kTol)
          << "live " << at;

      // Endpoint primitive: rounds at Poisson times of rate kRequestRate.
      core::PairConfig pc;
      pc.backend = core::Backend::kQuantum;
      pc.supply = birth_death_supply(rho, k);
      pc.round_rate_hz = kRequestRate;
      pc.seed = kSeed;
      core::CorrelatedPair pair(pc);
      for (std::size_t i = 0; i < kRequests; ++i) {
        (void)pair.decide(0, 0);
        (void)pair.decide(1, 1);
      }
      EXPECT_NEAR(ratio(pair.stats().quantum_rounds, pair.stats().rounds), hit,
                  kTol)
          << "pair " << at;
    }
  }
}

}  // namespace
}  // namespace ftl
