#include "lb/strategy.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "util/rng.hpp"

namespace ftl::lb {
namespace {

/// `n` active balancers with `batch` uniformly typed requests each.
StepArrivals uniform_arrivals(std::size_t n, std::size_t batch,
                              util::Rng& rng) {
  StepArrivals in;
  in.batch = batch;
  in.active.assign(n, 1);
  in.types.resize(n * batch);
  for (auto& t : in.types) {
    t = rng.bernoulli(0.5) ? TaskType::kC : TaskType::kE;
  }
  return in;
}

/// One request per balancer, of the given types.
StepArrivals arrivals(std::initializer_list<TaskType> types) {
  StepArrivals in;
  in.types = types;
  in.active.assign(in.types.size(), 1);
  return in;
}

std::vector<std::uint32_t> route(LbStrategy& strat, const StepArrivals& in,
                                 const ServerArray& servers, util::Rng& rng) {
  std::vector<std::uint32_t> targets(in.types.size(), 0);
  const Rounds rounds = strat.assign(in, targets, servers, rng);
  EXPECT_EQ(rounds.won + rounds.lost, 0) << "only paired strategies play";
  return targets;
}

TEST(RandomStrategy, ProducesValidServers) {
  RandomStrategy strat;
  util::Rng rng(1);
  const ServerArray servers(7);
  const auto targets = route(strat, uniform_arrivals(10, 2, rng), servers, rng);
  ASSERT_EQ(targets.size(), 20u);
  for (std::uint32_t s : targets) EXPECT_LT(s, 7u);
}

TEST(RandomStrategy, CoversAllServers) {
  RandomStrategy strat;
  util::Rng rng(2);
  const ServerArray servers(5);
  std::set<std::uint32_t> seen;
  for (int i = 0; i < 200; ++i) {
    for (std::uint32_t s :
         route(strat, uniform_arrivals(4, 1, rng), servers, rng)) {
      seen.insert(s);
    }
  }
  EXPECT_EQ(seen.size(), 5u);
}

TEST(RandomStrategy, SkipsIdleBalancers) {
  RandomStrategy strat;
  util::Rng rng(13);
  const ServerArray servers(5);
  StepArrivals in = uniform_arrivals(3, 2, rng);
  in.active[1] = 0;
  std::vector<std::uint32_t> targets(in.types.size(), 99);
  strat.assign(in, targets, servers, rng);
  EXPECT_EQ(targets[2], 99u);
  EXPECT_EQ(targets[3], 99u);
  EXPECT_LT(targets[0], 5u);
  EXPECT_LT(targets[5], 5u);
}

TEST(RoundRobin, CyclesThroughServers) {
  RoundRobinStrategy strat;
  util::Rng rng(3);
  const ServerArray servers(4);
  const StepArrivals in = uniform_arrivals(1, 1, rng);
  std::vector<std::uint32_t> seq;
  for (int i = 0; i < 8; ++i) seq.push_back(route(strat, in, servers, rng)[0]);
  // Consecutive assignments advance by exactly 1 mod 4.
  for (std::size_t i = 1; i < seq.size(); ++i) {
    EXPECT_EQ(seq[i], (seq[i - 1] + 1) % 4);
  }
}

TEST(PowerOfTwo, PrefersShorterQueue) {
  PowerOfTwoStrategy strat;
  util::Rng rng(4);
  ServerArray servers(4);  // queues {100, 100, 0, 100}: server 2 shortest
  for (std::size_t s : {0u, 1u, 3u}) {
    for (int i = 0; i < 100; ++i) servers.enqueue(s, TaskType::kE, 0, 0);
  }
  const StepArrivals in = uniform_arrivals(1, 1, rng);
  int hits = 0;
  const int n = 2000;
  for (int i = 0; i < n; ++i) {
    if (route(strat, in, servers, rng)[0] == 2) ++hits;
  }
  // Server 2 is chosen whenever probed: P = 1 - (3/4)(2/4)... = P(2 in
  // sample of 2 of 4 distinct) = 1 - C(3,2)/C(4,2) = 1/2.
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.5, 0.04);
}

TEST(Paired, UsesOnlyTwoCandidateServersPerPair) {
  PairedStrategy strat(std::make_unique<correlate::IndependentRandomSource>());
  util::Rng rng(5);
  const ServerArray servers(10);
  const StepArrivals in = uniform_arrivals(6, 1, rng);
  std::vector<std::uint32_t> targets(6);
  const Rounds rounds = strat.assign(in, targets, servers, rng);
  EXPECT_EQ(rounds.won + rounds.lost, 3);  // one round per pair
  // Each pair's two members land on at most 2 servers.
  for (std::size_t p = 0; p < 6; p += 2) {
    EXPECT_LE(std::set<std::uint32_t>({targets[p], targets[p + 1]}).size(),
              2u);
  }
}

TEST(Paired, OmniscientColocatesCCOnly) {
  PairedStrategy strat(std::make_unique<correlate::OmniscientOracleSource>());
  util::Rng rng(6);
  const ServerArray servers(8);
  const StepArrivals in =
      arrivals({TaskType::kC, TaskType::kC, TaskType::kC, TaskType::kE});
  std::vector<std::uint32_t> targets(4);
  for (int i = 0; i < 300; ++i) {
    const Rounds rounds = strat.assign(in, targets, servers, rng);
    EXPECT_EQ(rounds.won, 2);
    EXPECT_EQ(targets[0], targets[1]);  // C,C colocate
    EXPECT_NE(targets[2], targets[3]);  // C,E separate
  }
}

TEST(Paired, QuantumColocationRates) {
  PairedStrategy strat(std::make_unique<correlate::ChshSource>(1.0));
  util::Rng rng(7);
  const ServerArray servers(8);
  const StepArrivals in =
      arrivals({TaskType::kC, TaskType::kC, TaskType::kC, TaskType::kE});
  std::vector<std::uint32_t> targets(4);
  int cc_colocated = 0;
  int ce_separated = 0;
  long long won = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    won += strat.assign(in, targets, servers, rng).won;
    if (targets[0] == targets[1]) ++cc_colocated;
    if (targets[2] != targets[3]) ++ce_separated;
  }
  const double expect = 0.5 * (1.0 + 1.0 / std::sqrt(2.0));  // ~0.854
  EXPECT_NEAR(static_cast<double>(cc_colocated) / n, expect, 0.012);
  EXPECT_NEAR(static_cast<double>(ce_separated) / n, expect, 0.012);
  // A won round is exactly a satisfied co-location condition.
  EXPECT_EQ(won, cc_colocated + ce_separated);
}

TEST(Paired, LoneBalancerPicksACandidateWithoutPlaying) {
  PairedStrategy strat(std::make_unique<correlate::ChshSource>(1.0));
  util::Rng rng(14);
  const ServerArray servers(6);
  StepArrivals in = arrivals({TaskType::kC, TaskType::kC});
  in.active[0] = 0;
  std::vector<std::uint32_t> targets(2, 99);
  const Rounds rounds = strat.assign(in, targets, servers, rng);
  EXPECT_EQ(rounds.won + rounds.lost, 0);
  EXPECT_EQ(targets[0], 99u);
  EXPECT_LT(targets[1], 6u);
}

TEST(Paired, RequiresEvenBalancers) {
  PairedStrategy strat(std::make_unique<correlate::IndependentRandomSource>());
  util::Rng rng(8);
  const ServerArray servers(4);
  const StepArrivals in = uniform_arrivals(3, 1, rng);
  std::vector<std::uint32_t> targets(3);
  EXPECT_DEATH(strat.assign(in, targets, servers, rng), "even");
}

TEST(Paired, NameIncludesSource) {
  PairedStrategy strat(std::make_unique<correlate::ChshSource>(1.0));
  EXPECT_EQ(strat.name(), "paired(quantum-chsh)");
  ASSERT_NE(strat.source(), nullptr);
  EXPECT_EQ(strat.source()->name(), "quantum-chsh");
  EXPECT_EQ(RandomStrategy().source(), nullptr);
}

TEST(MakeStrategy, RandomOrPairedOverTheNamedSource) {
  EXPECT_EQ(make_strategy("random")->name(), "random");
  EXPECT_EQ(make_strategy("omniscient")->name(), "paired(omniscient)");
  EXPECT_EQ(make_strategy("quantum-chsh", 0.5)->name(),
            "paired(" + correlate::ChshSource(0.5).name() + ")");
}

TEST(Dedicated, SeparatesTypes) {
  DedicatedServersStrategy strat(0.5);
  util::Rng rng(9);
  const ServerArray servers(10);
  const StepArrivals in = arrivals({TaskType::kC, TaskType::kE});
  for (int i = 0; i < 200; ++i) {
    const auto targets = route(strat, in, servers, rng);
    EXPECT_LT(targets[0], 5u);  // C goes to dedicated half
    EXPECT_GE(targets[1], 5u);  // E to the rest
  }
}

TEST(Dedicated, AlwaysKeepsAtLeastOneOfEach) {
  DedicatedServersStrategy strat(0.01);
  util::Rng rng(10);
  const ServerArray servers(3);
  const auto targets =
      route(strat, arrivals({TaskType::kC, TaskType::kE}), servers, rng);
  EXPECT_EQ(targets[0], 0u);
  EXPECT_GE(targets[1], 1u);
}

TEST(LocalBatching, AllCsOfOneBalancerColocate) {
  LocalBatchingStrategy strat;
  util::Rng rng(11);
  const ServerArray servers(10);
  StepArrivals in;
  in.batch = 4;
  in.active = {1};
  in.types = {TaskType::kC, TaskType::kC, TaskType::kE, TaskType::kC};
  const auto targets = route(strat, in, servers, rng);
  EXPECT_EQ(targets[0], targets[1]);
  EXPECT_EQ(targets[1], targets[3]);
}

TEST(LocalBatching, DifferentBalancersIndependent) {
  LocalBatchingStrategy strat;
  util::Rng rng(12);
  const ServerArray servers(50);
  const StepArrivals in = arrivals({TaskType::kC, TaskType::kC});
  std::set<std::uint32_t> targets;
  for (int i = 0; i < 100; ++i) {
    const auto t = route(strat, in, servers, rng);
    targets.insert(t[0]);
    targets.insert(t[1]);
  }
  EXPECT_GT(targets.size(), 10u);
}

}  // namespace
}  // namespace ftl::lb
