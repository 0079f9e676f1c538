// Property suite: queue conservation on random load-balancing workloads.
//
// Whatever the load, policy, burst model, or routing strategy, a correct
// simulator neither loses nor invents requests: arrived == served +
// still_queued exactly, with sane delays and throughput. The binary {C, E}
// engine is swept through both entry points — run_lb_sim and
// run_sharded_lb_sim at 1, 2 and 4 shards, where every shard must conserve
// on its own — and so is the typed affinity-graph simulator.
#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "correlate/typed_source.hpp"
#include "games/affinity.hpp"
#include "lb/invariants.hpp"
#include "lb/sharded_simulator.hpp"
#include "lb/simulator.hpp"
#include "lb/strategy.hpp"
#include "lb/typed_simulator.hpp"
#include "util/proptest.hpp"

namespace {

using ftl::lb::LbConfig;
using ftl::lb::LbResult;
using ftl::proptest::CaseResult;
using ftl::proptest::for_all;
using ftl::proptest::Options;
using ftl::util::Rng;

Options suite(const std::string& name, std::size_t cases = 110) {
  Options o;
  o.name = name;
  o.cases = cases;
  return o;
}

struct PlainCase {
  LbConfig cfg;
  std::string strategy;
};

PlainCase random_plain_case(Rng& rng) {
  PlainCase c;
  // Even balancer counts so the paired strategies are always legal.
  c.cfg.num_balancers = 2 * (1 + rng.uniform_int(std::uint64_t{20}));
  c.cfg.num_servers = 2 + rng.uniform_int(std::uint64_t{30});
  c.cfg.p_colocate = rng.uniform();
  c.cfg.warmup_steps = static_cast<long>(rng.uniform_int(std::uint64_t{80}));
  c.cfg.measure_steps =
      40 + static_cast<long>(rng.uniform_int(std::uint64_t{300}));
  c.cfg.seed = rng.next_u64();
  switch (rng.uniform_int(std::uint64_t{3})) {
    case 0: c.cfg.policy = ftl::lb::ServicePolicy::kPaperCFirst; break;
    case 1: c.cfg.policy = ftl::lb::ServicePolicy::kFifoPair; break;
    default: c.cfg.policy = ftl::lb::ServicePolicy::kEFirst; break;
  }
  if (rng.bernoulli(0.3)) {
    ftl::lb::BurstModel burst;
    burst.high_activity = rng.uniform(0.5, 1.0);
    burst.low_activity = rng.uniform(0.0, 0.5);
    burst.mean_dwell_steps = rng.uniform(5.0, 100.0);
    c.cfg.burst = burst;
  }
  switch (rng.uniform_int(std::uint64_t{5})) {
    case 0: c.strategy = "random"; break;
    case 1: c.strategy = "round-robin"; break;
    case 2: c.strategy = "power-of-two"; break;
    case 3: c.strategy = "paired-classical"; break;
    default: c.strategy = "paired-quantum"; break;
  }
  // Batches > 1 are only defined for the non-paired strategies.
  if (c.strategy.rfind("paired", 0) != 0 && rng.bernoulli(0.4)) {
    c.cfg.batch_size = 2 + rng.uniform_int(std::uint64_t{3});
  }
  return c;
}

/// The decision source behind a case's strategy: its paired kind, or
/// "random" (the sharded engine's only unpaired routing).
std::string source_of(const std::string& kind) {
  if (kind == "paired-classical") return "classical-chsh";
  if (kind == "paired-quantum") return "quantum-chsh";
  return "random";
}

std::unique_ptr<ftl::lb::LbStrategy> make_plain_strategy(
    const std::string& kind) {
  using namespace ftl;
  if (kind == "round-robin") return std::make_unique<lb::RoundRobinStrategy>();
  if (kind == "power-of-two") {
    return std::make_unique<lb::PowerOfTwoStrategy>();
  }
  return lb::make_strategy(source_of(kind));
}

/// No server can complete more than two tasks per step.
long long capacity(std::size_t servers, long measure_steps) {
  return 2LL * static_cast<long long>(servers) *
         static_cast<long long>(measure_steps);
}

/// The sharded engine on `shards` copies of the case's cluster (so every
/// shard is valid and runs at the case's load), routed by the case's
/// source.
std::string sharded_violation(const PlainCase& c, std::size_t shards) {
  ftl::lb::ShardedLbConfig cfg;
  static_cast<LbConfig&>(cfg) = c.cfg;
  cfg.num_balancers *= shards;
  cfg.num_servers *= shards;
  cfg.num_shards = shards;
  cfg.source = source_of(c.strategy);
  const auto r = ftl::lb::run_sharded_lb_sim(cfg);
  const std::string where =
      cfg.source + " at " + std::to_string(shards) + " shards: ";
  ftl::lb::ShardedCounters sum;
  for (const ftl::lb::ShardedCounters& s : r.per_shard) {
    if (s.arrived != s.served + s.still_queued) {
      return where + "a shard lost or invented requests";
    }
    if (s.served > capacity(c.cfg.num_servers, c.cfg.measure_steps)) {
      return where + "a shard exceeds its service capacity";
    }
    sum += s;
  }
  if (r.per_shard.size() != shards || !(sum == r.counters)) {
    return where + "totals are not the sum of the shards";
  }
  if (r.counters.arrived != r.counters.served + r.counters.still_queued) {
    return where + "totals lost or invented requests";
  }
  if (r.counters.served > capacity(cfg.num_servers, cfg.measure_steps)) {
    return where + "totals exceed service capacity";
  }
  return "";
}

TEST(PropLb, PlainSimulatorConservesRequests) {
  const auto r = for_all(
      suite("plain-lb-conservation"), random_plain_case,
      [](const PlainCase& c) {
        auto strategy = make_plain_strategy(c.strategy);
        const LbResult result = ftl::lb::run_lb_sim(c.cfg, *strategy);
        const std::string violation =
            ftl::lb::conservation_violation(result);
        if (!violation.empty()) {
          return CaseResult::fail(c.strategy + ": " + violation);
        }
        const long long cap = capacity(c.cfg.num_servers, c.cfg.measure_steps);
        if (result.served > cap) {
          return CaseResult::fail("served " + std::to_string(result.served) +
                                  " exceeds service capacity " +
                                  std::to_string(cap));
        }
        for (std::size_t shards : {1u, 2u, 4u}) {
          const std::string bad = sharded_violation(c, shards);
          if (!bad.empty()) return CaseResult::fail(bad);
        }
        return CaseResult::pass();
      });
  ASSERT_TRUE(r.ok) << r.message;
}

struct TypedCase {
  ftl::lb::TypedLbConfig cfg;
  ftl::games::AffinityGraph graph{2};
  int strategy = 0;
};

TypedCase random_typed_case(Rng& rng) {
  TypedCase c;
  const std::size_t num_types = 2 + rng.uniform_int(std::uint64_t{3});
  c.graph = ftl::games::AffinityGraph::random(num_types, rng.uniform(), rng);
  c.cfg.num_balancers = 2 * (1 + rng.uniform_int(std::uint64_t{15}));
  c.cfg.num_servers = 2 + rng.uniform_int(std::uint64_t{24});
  c.cfg.warmup_steps = static_cast<long>(rng.uniform_int(std::uint64_t{60}));
  c.cfg.measure_steps =
      40 + static_cast<long>(rng.uniform_int(std::uint64_t{250}));
  c.cfg.interference = rng.uniform();
  c.cfg.policy = rng.bernoulli(0.5)
                     ? ftl::lb::TypedServicePolicy::kPriorityPairs
                     : ftl::lb::TypedServicePolicy::kPairsFirstFifo;
  c.cfg.mix_drift_period =
      rng.bernoulli(0.25)
          ? 10 + static_cast<long>(rng.uniform_int(std::uint64_t{50}))
          : 0;
  c.cfg.seed = rng.next_u64();
  c.cfg.type_probs.assign(num_types, 0.0);
  double total = 0.0;
  for (double& p : c.cfg.type_probs) {
    p = rng.exponential(1.0);
    total += p;
  }
  for (double& p : c.cfg.type_probs) p /= total;
  // Renormalise the tail so the probabilities sum to 1 exactly (the
  // simulator asserts to 1e-9).
  double head = 0.0;
  for (std::size_t t = 0; t + 1 < num_types; ++t) head += c.cfg.type_probs[t];
  c.cfg.type_probs.back() = 1.0 - head;
  c.strategy = static_cast<int>(rng.uniform_int(std::uint64_t{2}));
  return c;
}

TEST(PropLb, TypedSimulatorConservesRequests) {
  const auto r = for_all(
      suite("typed-lb-conservation"), random_typed_case,
      [](const TypedCase& c) {
        std::unique_ptr<ftl::lb::TypedLbStrategy> strategy;
        if (c.strategy == 0) {
          strategy = std::make_unique<ftl::lb::TypedRandomStrategy>();
        } else {
          // One dedicated pool per type.
          std::vector<std::size_t> group_of(c.graph.num_types());
          for (std::size_t t = 0; t < group_of.size(); ++t) group_of[t] = t;
          const std::size_t groups = group_of.size();
          if (c.cfg.num_servers < groups) {
            // Not enough servers for per-type pools; fall back to random.
            strategy = std::make_unique<ftl::lb::TypedRandomStrategy>();
          } else {
            strategy = std::make_unique<ftl::lb::TypedDedicatedStrategy>(
                group_of, groups);
          }
        }
        const LbResult result =
            ftl::lb::run_typed_lb_sim(c.cfg, c.graph, *strategy);
        const std::string violation =
            ftl::lb::conservation_violation(result);
        if (!violation.empty()) return CaseResult::fail(violation);
        const long long capacity =
            2LL * static_cast<long long>(c.cfg.num_servers) *
            static_cast<long long>(c.cfg.measure_steps);
        if (result.served > capacity) {
          return CaseResult::fail("served exceeds 2-per-server-step capacity");
        }
        return CaseResult::pass();
      });
  ASSERT_TRUE(r.ok) << r.message;
}

// Determinism: the same config and seed must reproduce the same result
// bit-for-bit — the property that makes every bench and every prop failure
// replayable in the first place.
TEST(PropLb, SimulationIsDeterministicInItsSeed) {
  const auto r = for_all(
      suite("lb-seed-determinism", 60), random_plain_case,
      [](const PlainCase& c) {
        auto s1 = make_plain_strategy(c.strategy);
        auto s2 = make_plain_strategy(c.strategy);
        const LbResult a = ftl::lb::run_lb_sim(c.cfg, *s1);
        const LbResult b = ftl::lb::run_lb_sim(c.cfg, *s2);
        if (a.arrived != b.arrived || a.served != b.served ||
            a.still_queued != b.still_queued ||
            a.mean_queue_length != b.mean_queue_length ||
            a.mean_delay != b.mean_delay) {
          return CaseResult::fail("same seed, different trajectories");
        }
        return CaseResult::pass();
      });
  ASSERT_TRUE(r.ok) << r.message;
}

}  // namespace
