// TraceContext derivation, parented span recording, and the sliding-
// window histogram: determinism of the ids, correctness of the emitted
// args, and windowed-percentile publication through the gauge path.
#include <gtest/gtest.h>

#include <chrono>
#include <set>
#include <string>
#include <thread>

#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/spanctx.hpp"
#include "obs/trace.hpp"

namespace {

namespace json = ftl::obs::json;
using ftl::obs::parse_trace_id_hex;
using ftl::obs::TraceContext;
using ftl::obs::trace_id_hex;
using ftl::obs::real::SlidingHistogram;
using ftl::obs::real::Tracer;

TEST(TraceContext, DerivationIsDeterministic) {
  const TraceContext a = TraceContext::derive(42, 3, 17);
  const TraceContext b = TraceContext::derive(42, 3, 17);
  EXPECT_EQ(a.trace_id, b.trace_id);
  EXPECT_EQ(a.span_id, b.span_id);
  EXPECT_TRUE(a.sampled());
}

TEST(TraceContext, DistinctInputsGiveDistinctTraces) {
  std::set<std::uint64_t> ids;
  for (std::uint64_t stream = 0; stream < 8; ++stream) {
    for (std::uint64_t index = 0; index < 64; ++index) {
      const TraceContext ctx = TraceContext::derive(42, stream, index);
      EXPECT_NE(ctx.trace_id, 0u);
      ids.insert(ctx.trace_id);
    }
  }
  // splitmix64 over distinct inputs: collisions across 512 draws would
  // point at a broken mix, not bad luck.
  EXPECT_EQ(ids.size(), 8u * 64u);
}

TEST(TraceContext, ChildSpansStayInTraceWithFreshIds) {
  const TraceContext root = TraceContext::derive(7, 0, 0);
  const TraceContext c0 = root.child(0);
  const TraceContext c1 = root.child(1);
  EXPECT_EQ(c0.trace_id, root.trace_id);
  EXPECT_EQ(c1.trace_id, root.trace_id);
  EXPECT_NE(c0.span_id, root.span_id);
  EXPECT_NE(c0.span_id, c1.span_id);
  EXPECT_EQ(c0.span_id, root.child_span_id(0));
}

TEST(TraceContext, HexRoundTrips) {
  for (const std::uint64_t id :
       {std::uint64_t{1}, std::uint64_t{0xdeadbeefULL},
        std::uint64_t{0xffffffffffffffffULL},
        TraceContext::derive(42, 0, 0).trace_id}) {
    const std::string hex = trace_id_hex(id);
    EXPECT_EQ(hex.size(), 16u);
    EXPECT_EQ(parse_trace_id_hex(hex), id);
  }
  EXPECT_EQ(parse_trace_id_hex(""), 0u);
  EXPECT_EQ(parse_trace_id_hex("xyz"), 0u);
  EXPECT_EQ(parse_trace_id_hex("123"), 0x123u);  // short hex is tolerated
  EXPECT_EQ(parse_trace_id_hex("00112233445566778899"), 0u);  // too long
}

TEST(RecordSpan, RecordsParentedSpanWithArgs) {
  Tracer& t = ftl::obs::real::tracer();
  t.start();
  const TraceContext parent = TraceContext::derive(42, 1, 2);
  const TraceContext child = parent.child(/*label=*/5);
  t.record_span("stage_a", "testcat", t.now_us(), 1.5, child.trace_id,
                child.span_id, parent.span_id);
  t.stop();
  ASSERT_EQ(t.size(), 1u);

  const auto doc = json::parse(t.json());
  ASSERT_TRUE(doc.has_value());
  const json::Value* other = doc->find("otherData");
  ASSERT_NE(other, nullptr);
  const json::Value* t0 = other->find("t0_steady_ns");
  ASSERT_NE(t0, nullptr);
  EXPECT_TRUE(t0->is_string());
  EXPECT_NE(t0->string, "0");

  const json::Value* events = doc->find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_EQ(events->array.size(), 1u);
  const json::Value& e = events->array[0];
  EXPECT_EQ(e.find("name")->string, "stage_a");
  EXPECT_EQ(e.find("cat")->string, "testcat");
  EXPECT_EQ(e.find("ph")->string, "X");
  EXPECT_EQ(e.find("dur")->number, 1.5);
  const json::Value* args = e.find("args");
  ASSERT_NE(args, nullptr);
  EXPECT_EQ(parse_trace_id_hex(args->find("trace_id")->string),
            parent.trace_id);
  EXPECT_EQ(parse_trace_id_hex(args->find("span_id")->string),
            parent.child_span_id(5));
  EXPECT_EQ(parse_trace_id_hex(args->find("parent_span_id")->string),
            parent.span_id);
}

TEST(SlidingHistogram, QuantilesOverTheLiveWindow) {
  ftl::obs::real::Registry reg;
  // One huge epoch: nothing rotates out during the test.
  SlidingHistogram h("lat_us", 0.0, 1000.0, 100, /*window_epochs=*/4,
                     std::chrono::milliseconds(60000), &reg);
  for (int i = 1; i <= 1000; ++i) h.observe(static_cast<double>(i % 1000));
  EXPECT_EQ(h.window_count(), 1000u);
  const double p50 = h.quantile(0.50);
  const double p95 = h.quantile(0.95);
  const double p99 = h.quantile(0.999);
  EXPECT_LE(p50, p95);
  EXPECT_LE(p95, p99);
  EXPECT_NEAR(p50, 500.0, 50.0);
  EXPECT_NEAR(p95, 950.0, 50.0);
}

TEST(SlidingHistogram, FlushPublishesWindowGauges) {
  ftl::obs::real::Registry reg;
  SlidingHistogram h("stage_us", 0.0, 100.0, 50, 4,
                     std::chrono::milliseconds(60000), &reg,
                     {{"stage", "decide"}});
  for (int i = 0; i < 100; ++i) h.observe(10.0);
  h.flush();
  const ftl::obs::Snapshot snap = reg.snapshot();
  bool saw_p50 = false, saw_count = false;
  for (const auto& g : snap.gauges) {
    if (g.name == "stage_us.window_p50") {
      saw_p50 = true;
      EXPECT_NEAR(g.value, 10.0, 2.5);
      ASSERT_EQ(g.labels.size(), 1u);
      EXPECT_EQ(g.labels[0].second, "decide");
    }
    if (g.name == "stage_us.window_count") {
      saw_count = true;
      EXPECT_EQ(g.value, 100.0);
    }
  }
  EXPECT_TRUE(saw_p50);
  EXPECT_TRUE(saw_count);
}

TEST(SlidingHistogram, OldEpochsFallOutOfTheWindow) {
  ftl::obs::real::Registry reg;
  // 2-epoch window of 10 ms epochs: samples vanish ~30 ms later.
  SlidingHistogram h("w", 0.0, 10.0, 10, /*window_epochs=*/2,
                     std::chrono::milliseconds(10), &reg);
  for (int i = 0; i < 50; ++i) h.observe(5.0);
  EXPECT_EQ(h.window_count(), 50u);
  // Sleep past the whole window, then let an observe rotate the ring.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  h.observe(5.0);
  EXPECT_LE(h.window_count(), 1u + 50u);  // old epochs may already be gone
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  h.flush();
  EXPECT_EQ(h.window_count(), 0u);
}

// Reads one gauge value out of a snapshot; fails the test if absent.
double gauge_value(const ftl::obs::Snapshot& snap, std::string_view name) {
  for (const auto& g : snap.gauges) {
    if (g.name == name) return g.value;
  }
  ADD_FAILURE() << "gauge not found: " << name;
  return -1.0;
}

TEST(SlidingHistogram, WindowQuantilesMatchCumulativeHistogram) {
  // One window and one cumulative histogram over the same bins and samples
  // must publish the same quantiles: both take the midpoint of the bin that
  // holds the q-th sample (0..999 in 10-wide bins: p50 = 495, not 500).
  ftl::obs::real::Registry reg;
  SlidingHistogram window("same", 0.0, 1000.0, 100, /*window_epochs=*/1,
                          std::chrono::milliseconds(60000), &reg);
  ftl::obs::real::Histogram cumulative(0.0, 1000.0, 100);
  for (int i = 0; i < 1000; ++i) {
    window.observe(static_cast<double>(i));
    cumulative.observe(static_cast<double>(i));
  }
  window.flush();
  const ftl::obs::Snapshot snap = reg.snapshot();
  const ftl::util::Histogram want = cumulative.snapshot();
  EXPECT_EQ(gauge_value(snap, "same.window_p50"), want.quantile(0.50));
  EXPECT_EQ(gauge_value(snap, "same.window_p95"), want.quantile(0.95));
  EXPECT_EQ(gauge_value(snap, "same.window_p99"), want.quantile(0.99));
  EXPECT_EQ(gauge_value(snap, "same.window_p999"), want.quantile(0.999));
  EXPECT_EQ(gauge_value(snap, "same.window_count"),
            static_cast<double>(want.total()));
}

TEST(SlidingHistogramStaleness, UnflushedReadsDecayAfterIdleGap) {
  ftl::obs::real::Registry reg;
  // 2-epoch window of 25 ms epochs; nothing rotates the ring after the
  // burst — reading the window itself must age it out.
  SlidingHistogram h("idle_us", 0.0, 100.0, 50, /*window_epochs=*/2,
                     std::chrono::milliseconds(25), &reg);
  for (int i = 0; i < 40; ++i) h.observe(50.0);
  EXPECT_EQ(h.window_count(), 40u);
  EXPECT_GT(h.quantile(0.50), 0.0);
  // Sleep well past the window with zero observers in between.
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  EXPECT_EQ(h.window_count(), 0u);
  EXPECT_EQ(h.quantile(0.50), 0.0);
  EXPECT_EQ(h.quantile(0.999), 0.0);
}

TEST(SlidingHistogramStaleness, FlushedGaugesReportEmptyWindowAfterIdleGap) {
  ftl::obs::real::Registry reg;
  SlidingHistogram h("gap_us", 0.0, 100.0, 50, /*window_epochs=*/2,
                     std::chrono::milliseconds(25), &reg,
                     {{"stage", "decide"}});
  for (int i = 0; i < 100; ++i) h.observe(10.0);
  h.flush();
  {
    const ftl::obs::Snapshot snap = reg.snapshot();
    EXPECT_EQ(gauge_value(snap, "gap_us.window_count"), 100.0);
    EXPECT_NEAR(gauge_value(snap, "gap_us.window_p50"), 10.0, 2.5);
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  h.flush();
  {
    const ftl::obs::Snapshot snap = reg.snapshot();
    EXPECT_EQ(gauge_value(snap, "gap_us.window_count"), 0.0);
    EXPECT_EQ(gauge_value(snap, "gap_us.window_p50"), 0.0);
    EXPECT_EQ(gauge_value(snap, "gap_us.window_p95"), 0.0);
    EXPECT_EQ(gauge_value(snap, "gap_us.window_p99"), 0.0);
    EXPECT_EQ(gauge_value(snap, "gap_us.window_p999"), 0.0);
  }
}

TEST(SlidingHistogramStaleness, FreshSamplesAfterIdleGapStandAlone) {
  ftl::obs::real::Registry reg;
  SlidingHistogram h("resume_us", 0.0, 100.0, 50, /*window_epochs=*/2,
                     std::chrono::milliseconds(25), &reg);
  for (int i = 0; i < 50; ++i) h.observe(90.0);
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  // After the gap, only the fresh burst is in the window: the old p-heavy
  // tail must not bleed into the new percentiles.
  for (int i = 0; i < 7; ++i) h.observe(10.0);
  EXPECT_EQ(h.window_count(), 7u);
  EXPECT_NEAR(h.quantile(0.999), 10.0, 2.5);
}

TEST(SlidingHistogram, ClampsOutOfRangeObservations) {
  ftl::obs::real::Registry reg;
  SlidingHistogram h("clamp", 0.0, 10.0, 10, 2,
                     std::chrono::milliseconds(60000), &reg);
  h.observe(-5.0);
  h.observe(1e9);
  EXPECT_EQ(h.window_count(), 2u);
  EXPECT_GE(h.quantile(0.0), 0.0);
  EXPECT_LE(h.quantile(1.0), 10.0);
}

}  // namespace
