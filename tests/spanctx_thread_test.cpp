// Trace-context propagation and the sliding-window histogram under real
// concurrency (run in CI under ThreadSanitizer via the `thread` label):
// parented spans recorded from ShardPool workers under one shared parent
// context, and lock-free window observes racing rotations and flushes.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <set>
#include <thread>
#include <vector>

#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/spanctx.hpp"
#include "obs/trace.hpp"
#include "sim/sharded.hpp"

namespace {

namespace json = ftl::obs::json;
using ftl::obs::parse_trace_id_hex;
using ftl::obs::TraceContext;
using ftl::obs::real::SlidingHistogram;

TEST(SpanCtxThread, ShardPoolWorkersRecordUnderOneTrace) {
  constexpr std::size_t kShards = 8;
  auto& tracer = ftl::obs::real::tracer();
  tracer.start();
  const TraceContext root = TraceContext::derive(42, 0, 0);
  ftl::sim::ShardPool pool(4);
  pool.parallel_shards(kShards, [&](std::size_t shard) {
    const double start_us = tracer.now_us();
    // A child context derived inside the worker stays in the same trace.
    const TraceContext child = root.child(shard);
    EXPECT_EQ(child.trace_id, root.trace_id);
    tracer.record_span("shard_work", "ftl", start_us,
                       tracer.now_us() - start_us, child.trace_id,
                       child.span_id, root.span_id);
  });
  tracer.stop();
  ASSERT_EQ(tracer.size(), kShards);

  const auto doc = json::parse(tracer.json());
  ASSERT_TRUE(doc.has_value());
  const json::Value* events = doc->find("traceEvents");
  ASSERT_NE(events, nullptr);
  std::set<std::uint64_t> span_ids;
  for (const json::Value& e : events->array) {
    const json::Value* args = e.find("args");
    ASSERT_NE(args, nullptr);
    EXPECT_EQ(parse_trace_id_hex(args->find("trace_id")->string),
              root.trace_id);
    EXPECT_EQ(parse_trace_id_hex(args->find("parent_span_id")->string),
              root.span_id);
    span_ids.insert(parse_trace_id_hex(args->find("span_id")->string));
  }
  // Each shard label derives a distinct child span id.
  EXPECT_EQ(span_ids.size(), kShards);
}

TEST(SpanCtxThread, SlidingHistogramConcurrentObserves) {
  ftl::obs::real::Registry reg;
  // Tiny epochs force rotation races between observers and the flusher.
  SlidingHistogram h("conc_us", 0.0, 100.0, 50, /*window_epochs=*/4,
                     std::chrono::milliseconds(2), &reg);
  constexpr int kThreads = 4;
  constexpr int kPerThread = 20000;
  std::atomic<bool> stop_flush{false};
  std::thread flusher([&] {
    while (!stop_flush.load(std::memory_order_relaxed)) {
      h.flush();
      (void)h.quantile(0.5);
      std::this_thread::yield();
    }
  });
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&h, t] {
      for (int i = 0; i < kPerThread; ++i) {
        h.observe(static_cast<double>((t * kPerThread + i) % 100));
      }
    });
  }
  for (std::thread& w : workers) w.join();
  stop_flush.store(true, std::memory_order_relaxed);
  flusher.join();
  // Rotation may age out early samples; what remains must be a sane count
  // and the quantiles must stay ordered and in range.
  EXPECT_LE(h.window_count(),
            static_cast<std::uint64_t>(kThreads) * kPerThread);
  const double p50 = h.quantile(0.5);
  const double p99 = h.quantile(0.99);
  EXPECT_GE(p50, 0.0);
  EXPECT_LE(p99, 100.0);
  EXPECT_LE(p50, p99);
}

}  // namespace
