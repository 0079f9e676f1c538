// The FTL_OBS_ENABLED=OFF twins must be genuinely free: empty types whose
// calls compile to nothing. Both implementations are always compiled, so
// this is checkable from any build configuration.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <type_traits>

#include "obs/metrics.hpp"
#include "obs/profiler.hpp"
#include "obs/spanctx.hpp"
#include "obs/trace.hpp"

namespace {

namespace noop = ftl::obs::noop;

// Empty types: no per-metric state, so instrumented call sites carry no
// storage and the inlined no-op bodies fold away.
static_assert(std::is_empty_v<noop::Counter>);
static_assert(std::is_empty_v<noop::Gauge>);
static_assert(std::is_empty_v<noop::Histogram>);
static_assert(std::is_empty_v<noop::Registry>);
static_assert(std::is_empty_v<noop::Tracer>);
static_assert(std::is_empty_v<noop::ScopedSpan>);
static_assert(std::is_empty_v<noop::SlidingHistogram>);
static_assert(std::is_empty_v<noop::Profiler>);
static_assert(std::is_empty_v<noop::ProfileStage>);

// The real twins are decidedly not empty — if one ever became empty the
// aliases were probably mis-wired.
static_assert(!std::is_empty_v<ftl::obs::real::Counter>);
static_assert(!std::is_empty_v<ftl::obs::real::Histogram>);
static_assert(!std::is_empty_v<ftl::obs::real::SlidingHistogram>);
static_assert(!std::is_empty_v<ftl::obs::real::Profiler>);
static_assert(!std::is_empty_v<ftl::obs::real::ProfileStage>);

// TraceContext is shared plain data, not twinned: both configurations use
// the same type, so ids derived under OFF still propagate on the wire.
static_assert(std::is_same_v<decltype(ftl::obs::TraceContext{}.trace_id),
                             std::uint64_t>);

// The alias switch must agree with the macro in this translation unit.
#if FTL_OBS_ENABLED
static_assert(ftl::obs::kEnabled);
static_assert(std::is_same_v<ftl::obs::Counter, ftl::obs::real::Counter>);
static_assert(std::is_same_v<ftl::obs::Profiler, ftl::obs::real::Profiler>);
#else
static_assert(!ftl::obs::kEnabled);
static_assert(std::is_same_v<ftl::obs::Counter, noop::Counter>);
static_assert(std::is_same_v<ftl::obs::Profiler, noop::Profiler>);
#endif

TEST(ObsNoop, CallsAreSafeAndInert) {
  noop::Registry& reg = noop::registry();
  noop::Counter& c = reg.counter("anything", {{"k", "v"}});
  c.inc();
  c.inc(100);
  EXPECT_EQ(c.value(), 0u);

  noop::Gauge& g = reg.gauge("g");
  g.set(5.0);
  g.add(1.0);
  g.update_max(99.0);
  EXPECT_EQ(g.value(), 0.0);

  noop::Histogram& h = reg.histogram("h", 0.0, 10.0, 5);
  h.observe(3.0);
  EXPECT_EQ(h.sample().total, 0u);

  const ftl::obs::Snapshot snap = reg.snapshot();
  EXPECT_TRUE(snap.counters.empty());
  EXPECT_TRUE(snap.gauges.empty());
  EXPECT_TRUE(snap.histograms.empty());
}

TEST(ObsNoop, ScopedTypesConstructAndDestruct) {
  {
    noop::ScopedSpan span("name", "cat");
  }
  noop::Tracer& t = noop::tracer();
  t.start();
  t.record_instant_tagged("x", "y", 1, "stage");
  EXPECT_FALSE(t.active());
  EXPECT_EQ(t.size(), 0u);
}

TEST(ObsNoop, SpanCtxTwinsAreInert) {
  noop::SlidingHistogram h("w", 0.0, 10.0, 10, 4,
                           std::chrono::milliseconds(100));
  h.observe(1.0);
  h.flush();
  EXPECT_EQ(h.window_count(), 0u);
  EXPECT_EQ(h.quantile(0.99), 0.0);
}

TEST(ObsNoop, ProfilerTwinIsInert) {
  noop::Profiler& p = noop::profiler();
  EXPECT_FALSE(p.start({}));  // never arms: no SIGPROF under obs-OFF
  p.stop();
  EXPECT_FALSE(p.running());
  EXPECT_EQ(p.sample_count(), 0u);
  EXPECT_EQ(p.dropped(), 0u);
  EXPECT_TRUE(p.samples().empty());
  EXPECT_TRUE(p.folded().empty());
  EXPECT_EQ(noop::set_profile_stage("stage"), nullptr);
  EXPECT_EQ(noop::profile_stage(), nullptr);
  { noop::ProfileStage tag("scoped"); }
}

}  // namespace
