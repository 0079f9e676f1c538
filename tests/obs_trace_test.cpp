// Tracer behaviour and Chrome trace JSON well-formedness: every emitted
// document must parse (with the in-tree strict parser) and carry the
// fields chrome://tracing / Perfetto rely on.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace {

namespace json = ftl::obs::json;
using ftl::obs::real::ScopedHistogramTimer;
using ftl::obs::real::ScopedSpan;
using ftl::obs::real::Tracer;

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

TEST(ObsTracer, InactiveRecordsNothing) {
  Tracer& t = ftl::obs::real::tracer();
  t.stop();
  const std::size_t before = t.size();
  t.record_complete("x", "cat", 0.0, 1.0);
  t.record_instant_tagged("y", "cat", 1, "stage");
  { ScopedSpan span("scoped", "cat"); }
  EXPECT_EQ(t.size(), before);
}

TEST(ObsTracer, CollectsSpansWhileActive) {
  Tracer& t = ftl::obs::real::tracer();
  t.start();
  {
    ScopedSpan outer("outer", "test");
    ScopedSpan inner("inner", "test");
  }
  t.record_instant_tagged("marker", "test", 1, "stage");
  t.stop();
  EXPECT_EQ(t.size(), 3u);

  const auto doc = json::parse(t.json());
  ASSERT_TRUE(doc.has_value());
  ASSERT_TRUE(doc->is_object());
  const json::Value* events = doc->find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());
  ASSERT_EQ(events->array.size(), 3u);
  for (const json::Value& e : events->array) {
    ASSERT_TRUE(e.is_object());
    ASSERT_NE(e.find("name"), nullptr);
    ASSERT_NE(e.find("cat"), nullptr);
    ASSERT_NE(e.find("pid"), nullptr);
    ASSERT_NE(e.find("tid"), nullptr);
    ASSERT_NE(e.find("ts"), nullptr);
    const json::Value* ph = e.find("ph");
    ASSERT_NE(ph, nullptr);
    EXPECT_TRUE(ph->string == "X" || ph->string == "i") << ph->string;
    if (ph->string == "X") {
      const json::Value* dur = e.find("dur");
      ASSERT_NE(dur, nullptr);
      EXPECT_GE(dur->number, 0.0);
    }
  }
  // Inner closes before outer, so it is recorded first.
  EXPECT_EQ(events->array[0].find("name")->string, "inner");
  EXPECT_EQ(events->array[1].find("name")->string, "outer");
}

TEST(ObsTracer, StartClearsPreviousBuffer) {
  Tracer& t = ftl::obs::real::tracer();
  t.start();
  t.record_instant_tagged("old", "test", 1, "stage");
  t.stop();
  ASSERT_GE(t.size(), 1u);
  t.start();
  EXPECT_EQ(t.size(), 0u);
  t.stop();
}

TEST(ObsTracer, WriteEmitsParseableFile) {
  Tracer& t = ftl::obs::real::tracer();
  t.start();
  { ScopedSpan span("file_span", "test"); }
  t.stop();
  const std::string path = testing::TempDir() + "/obs_trace_test.json";
  ASSERT_TRUE(t.write(path));
  const auto doc = json::parse(read_file(path));
  ASSERT_TRUE(doc.has_value());
  ASSERT_NE(doc->find("traceEvents"), nullptr);
  std::remove(path.c_str());
}

TEST(ObsScopedHistogramTimer, FeedsDurationHistogram) {
  ftl::obs::real::Registry reg;
  ftl::obs::real::Histogram& h =
      reg.histogram("timer_us", 0.0, 1e9, 10);
  {
    ScopedHistogramTimer timer(h);
  }
  {
    ScopedHistogramTimer timer(h);
  }
  EXPECT_EQ(h.sample().total, 2u);
}

TEST(ObsTracerNoop, EmptyTraceStillParses) {
  const ftl::obs::noop::Tracer t;
  const auto doc = json::parse(t.json());
  ASSERT_TRUE(doc.has_value());
  const json::Value* events = doc->find("traceEvents");
  ASSERT_NE(events, nullptr);
  EXPECT_TRUE(events->is_array());
  EXPECT_TRUE(events->array.empty());
}

}  // namespace
