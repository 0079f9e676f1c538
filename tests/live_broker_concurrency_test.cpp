// Concurrent producer/consumer exercise of the LiveBroker, run under the
// tsan preset in CI (ctest -L thread). The assertions are conservation
// identities that must survive arbitrary interleavings; the real payload is
// ThreadSanitizer watching the per-source locking and the admission
// atomics.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <thread>
#include <vector>

#include "qnet/live_broker.hpp"

namespace ftl::qnet {
namespace {

LiveBrokerConfig concurrent_config() {
  LiveBrokerConfig cfg;
  cfg.qnet.pair_rate_hz = 2e5;
  cfg.qnet.fiber_km = 0.0;
  cfg.qnet.memory_t1_s = 50.0;  // no expiry: conservation stays simple
  cfg.qnet.memory_t2_s = 10.0;
  cfg.qnet.max_storage_s = 1.0;
  cfg.sources = 4;
  cfg.qnet.memory_slots = 256;
  return cfg;
}

TEST(LiveBrokerConcurrency, ProducerAndConsumersRaceSafely) {
  LiveBroker broker(concurrent_config(), /*seed=*/42);
  broker.start_producer(std::chrono::microseconds(100));
  ASSERT_TRUE(broker.producer_running());

  constexpr int kThreads = 3;
  constexpr std::uint64_t kDecisionsPerThread = 20000;
  std::atomic<std::uint64_t> quantum_hits{0};
  std::vector<std::thread> consumers;
  consumers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    consumers.emplace_back([&broker, &quantum_hits, t] {
      std::uint64_t local_hits = 0;
      for (std::uint64_t i = 0; i < kDecisionsPerThread; ++i) {
        const std::size_t source = (static_cast<std::size_t>(t) + i) % 4;
        const auto d =
            broker.decide_now(source, static_cast<std::uint8_t>(i & 1u));
        if (d.quantum) ++local_hits;
      }
      quantum_hits.fetch_add(local_hits, std::memory_order_relaxed);
    });
  }
  for (auto& c : consumers) c.join();
  broker.stop_producer();
  EXPECT_FALSE(broker.producer_running());

  const LiveBrokerStats s = broker.stats();
  EXPECT_EQ(s.requests, kThreads * kDecisionsPerThread);
  EXPECT_EQ(s.hits, quantum_hits.load());
  EXPECT_EQ(s.hits + s.fallbacks, s.requests);
  EXPECT_TRUE(s.conservation_holds());
  // The producer ran for the whole consumer phase; it must have made pairs,
  // and every win probability lies in [0.75, 1].
  EXPECT_GT(s.pairs_generated, 0u);
  EXPECT_GE(s.win_sum, 0.75 * static_cast<double>(s.requests) - 1e-6);
  EXPECT_LE(s.win_sum, 1.0 * static_cast<double>(s.requests) + 1e-6);
}

TEST(LiveBrokerConcurrency, AdmissionControlUnderContention) {
  LiveBrokerConfig cfg = concurrent_config();
  cfg.max_pending = 64;
  LiveBroker broker(cfg, /*seed=*/1);

  constexpr int kThreads = 4;
  constexpr int kRounds = 5000;
  std::atomic<std::uint64_t> admitted{0};
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&broker, &admitted] {
      for (int i = 0; i < kRounds; ++i) {
        if (broker.try_admit(8)) {
          EXPECT_LE(broker.pending(), 64u);
          admitted.fetch_add(8, std::memory_order_relaxed);
          broker.release(8);
        }
      }
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(broker.pending(), 0u);
  // Every request was either admitted or counted rejected.
  EXPECT_EQ(admitted.load() + broker.stats().rejected,
            static_cast<std::uint64_t>(kThreads) * kRounds * 8);
}

TEST(LiveBrokerConcurrency, ProducerStartStopIsIdempotent) {
  LiveBroker broker(concurrent_config(), /*seed=*/2);
  broker.start_producer(std::chrono::microseconds(200));
  broker.start_producer(std::chrono::microseconds(200));  // no-op
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  broker.stop_producer();
  broker.stop_producer();  // no-op
  const LiveBrokerStats s = broker.stats();
  EXPECT_GT(s.pairs_generated, 0u);
  EXPECT_TRUE(s.conservation_holds());
}

}  // namespace
}  // namespace ftl::qnet
