// Sampling profiler: the deterministic exporter over synthetic samples
// (golden folded output with an injected symbolizer), live
// SIGPROF sampling against a CPU-burning loop, the one-session-at-a-time
// guard, and real-symbol resolution through the own-ELF symbolizer. The
// real::Profiler twin is always compiled, so everything here runs under
// FTL_OBS_ENABLED=OFF builds too.
#include "obs/profiler.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "obs/spanctx.hpp"

namespace {

using ftl::obs::fold_profile;
using ftl::obs::ProfilerOptions;
using ftl::obs::ProfileSample;
using ftl::obs::SymbolizeFn;

/// Deterministic fake symbolizer: f<decimal addr>.
std::string fake_symbolize(std::uintptr_t pc) {
  return "f" + std::to_string(pc);
}

ProfileSample sample(const char* stage, std::vector<std::uintptr_t> pcs) {
  ProfileSample s;
  s.stage = stage;
  s.pcs = std::move(pcs);
  return s;
}

TEST(FoldProfile, GoldenOutputSortedAndCallSiteAdjusted) {
  // pcs are leaf-first: {leaf, caller, root}. The folded line is
  // root-first, and every non-leaf pc (a return address) is symbolized at
  // pc-1 so the frame names the call site.
  std::vector<ProfileSample> samples = {
      sample(nullptr, {0x30, 0x20, 0x10}),
      sample(nullptr, {0x30, 0x20, 0x10}),
      sample("decide", {0x31, 0x21, 0x11}),
  };
  const std::string folded = fold_profile(samples, fake_symbolize);
  EXPECT_EQ(folded,
            "f15;f31;f48 2\n"
            "stage:decide;f16;f32;f49 1\n");
}

TEST(FoldProfile, DeterministicUnderSampleOrder) {
  std::vector<ProfileSample> a = {
      sample(nullptr, {0x5, 0x6}),
      sample("x", {0x7}),
      sample(nullptr, {0x5, 0x6}),
      sample(nullptr, {0x9, 0x6}),
  };
  std::vector<ProfileSample> b = {a[3], a[1], a[0], a[2]};
  EXPECT_EQ(fold_profile(a, fake_symbolize), fold_profile(b, fake_symbolize));
}

TEST(FoldProfile, EmptyAndDegenerateSamples) {
  EXPECT_EQ(fold_profile({}, fake_symbolize), "");
  // Zero-pc samples carry no stack and are skipped.
  std::vector<ProfileSample> samples = {sample("idle", {})};
  EXPECT_EQ(fold_profile(samples, fake_symbolize), "");
  // Single-frame samples are leaves: no pc-1 adjustment.
  samples = {sample(nullptr, {0x40})};
  EXPECT_EQ(fold_profile(samples, fake_symbolize), "f64 1\n");
}

TEST(FoldProfile, SanitizesFrameSeparators) {
  const SymbolizeFn hostile = [](std::uintptr_t) {
    return std::string("operator;new\nline");
  };
  std::vector<ProfileSample> samples = {sample(nullptr, {0x1})};
  EXPECT_EQ(fold_profile(samples, hostile), "operator:new line 1\n");
}

TEST(SymbolizePc, ResolvesOwnBinarySymbolsAndFallsBackToHex) {
  // trace_id_hex is an external-linkage function in the statically linked
  // ftl_obs — the own-ELF symtab must resolve it without -rdynamic.
  const std::string name = ftl::obs::symbolize_pc(
      reinterpret_cast<std::uintptr_t>(&ftl::obs::trace_id_hex));
  EXPECT_NE(name.find("trace_id_hex"), std::string::npos) << name;
  // A wild pointer resolves to nothing: hex fallback.
  const std::string wild = ftl::obs::symbolize_pc(0x1234);
  EXPECT_EQ(wild, "0x1234");
}

// --- live sampling ----------------------------------------------------------

/// Burns CPU until the process has consumed roughly `ms` more milliseconds
/// of CPU time (so the CPU-clock sampler is guaranteed expiries regardless
/// of machine load).
void burn_cpu_ms(long ms) {
  timespec t0{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &t0);
  volatile double acc = 0.0;
  for (;;) {
    for (int i = 1; i < 2000; ++i) acc = acc + std::sqrt(double(i));
    timespec t{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &t);
    const long elapsed_ms = (t.tv_sec - t0.tv_sec) * 1000 +
                            (t.tv_nsec - t0.tv_nsec) / 1000000;
    if (elapsed_ms >= ms) break;
  }
}

TEST(ProfilerLive, CapturesSamplesWhileBurningCpu) {
  ftl::obs::real::Profiler& p = ftl::obs::real::profiler();
  ProfilerOptions opts;
  opts.hz = 997;  // high rate so a short burn yields a solid sample count
  ASSERT_TRUE(p.start(opts));
  EXPECT_TRUE(p.running());
  EXPECT_EQ(p.options().hz, 997);

  {
    ftl::obs::real::ProfileStage tag("burn");
    burn_cpu_ms(300);
  }
  p.stop();
  EXPECT_FALSE(p.running());

  // 300ms of CPU at 997 Hz nominally yields ~300 samples; demand only a
  // loose lower bound to stay robust under sanitizers and slow CI.
  EXPECT_GE(p.sample_count(), 5u);

  // samples() may drop zero-depth captures, so it lower-bounds the count.
  const std::vector<ProfileSample> samples = p.samples();
  EXPECT_LE(samples.size(), p.sample_count());
  EXPECT_FALSE(samples.empty());

  // Folded output is non-empty and every line is `stack count`.
  const std::string folded = p.folded();
  ASSERT_FALSE(folded.empty());
  std::istringstream lines(folded);
  std::string line;
  std::uint64_t total = 0;
  bool saw_stage = false;
  while (std::getline(lines, line)) {
    ASSERT_FALSE(line.empty());
    const std::size_t space = line.rfind(' ');
    ASSERT_NE(space, std::string::npos) << line;
    ASSERT_GT(space, 0u) << line;
    const std::uint64_t count = std::stoull(line.substr(space + 1));
    EXPECT_GT(count, 0u);
    total += count;
    if (line.rfind("stage:burn;", 0) == 0) saw_stage = true;
  }
  EXPECT_EQ(total, samples.size());
  // The burn loop ran under a stage tag on the only busy thread, so the
  // bulk of the weight must carry it.
  EXPECT_TRUE(saw_stage) << folded;
}

TEST(ProfilerLive, SingleSessionGuardAndRestart) {
  ftl::obs::real::Profiler& p = ftl::obs::real::profiler();
  ASSERT_TRUE(p.start({}));
  // Second arm attempt fails — from any handle, not just the singleton.
  ftl::obs::real::Profiler other;
  EXPECT_FALSE(other.start({}));
  p.stop();
  p.stop();  // idempotent

  // Restart invalidates the previous session's samples.
  ProfilerOptions opts;
  opts.hz = 997;
  ASSERT_TRUE(p.start(opts));
  burn_cpu_ms(100);
  p.stop();
  EXPECT_GE(p.sample_count(), 1u);
}

TEST(ProfilerLive, OptionsAreClamped) {
  ftl::obs::real::Profiler p;
  ProfilerOptions opts;
  opts.hz = 0;
  opts.max_depth = 100000;
  opts.capacity = 1;
  ASSERT_TRUE(p.start(opts));
  EXPECT_EQ(p.options().hz, 1);
  EXPECT_EQ(p.options().max_depth, ftl::obs::kProfilerMaxDepth);
  EXPECT_GE(p.options().capacity, 256u);
  p.stop();
}

TEST(ProfilerStageTag, NestsAndRestores) {
  using ftl::obs::real::profile_stage;
  using ftl::obs::real::set_profile_stage;
  EXPECT_EQ(profile_stage(), nullptr);
  {
    ftl::obs::real::ProfileStage outer("outer");
    EXPECT_STREQ(profile_stage(), "outer");
    {
      ftl::obs::real::ProfileStage inner("inner");
      EXPECT_STREQ(profile_stage(), "inner");
    }
    EXPECT_STREQ(profile_stage(), "outer");
  }
  EXPECT_EQ(profile_stage(), nullptr);
  EXPECT_EQ(set_profile_stage("manual"), nullptr);
  EXPECT_STREQ(set_profile_stage(nullptr), "manual");
}

}  // namespace
