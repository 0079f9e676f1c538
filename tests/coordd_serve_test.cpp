// In-process tests of coordd::serve_decide, the decide path that the
// daemon and bench_ftlcoordd's stepped stage share: no socket, no thread,
// virtual decision times.
#include "ftlcoordd/serve.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <vector>

#include "ftlcoordd/protocol.hpp"
#include "obs/profiler.hpp"
#include "qnet/live_broker.hpp"

namespace ftl::coordd {
namespace {

/// Two sources, a pair rate below the request rate and a lossy fiber, so
/// the schedule below takes both the quantum and the fallback branch.
qnet::LiveBrokerConfig serve_config() {
  qnet::LiveBrokerConfig cfg;
  cfg.sources = 2;
  cfg.qnet.pair_rate_hz = 3e5;
  return cfg;
}

std::uint64_t bits(double x) {
  std::uint64_t b = 0;
  std::memcpy(&b, &x, sizeof b);
  return b;
}

/// Every decision-driven field, doubles compared bit for bit. `rejected`
/// is left to the callers: it counts refusals, which draw nothing.
void expect_same_draws(const qnet::LiveBrokerStats& a,
                       const qnet::LiveBrokerStats& b) {
  EXPECT_EQ(a.requests, b.requests);
  EXPECT_EQ(a.hits, b.hits);
  EXPECT_EQ(a.fallbacks, b.fallbacks);
  EXPECT_EQ(a.rounds_won, b.rounds_won);
  EXPECT_EQ(a.pairs_generated, b.pairs_generated);
  EXPECT_EQ(a.pairs_delivered, b.pairs_delivered);
  EXPECT_EQ(a.pairs_lost_fiber, b.pairs_lost_fiber);
  EXPECT_EQ(a.pairs_expired, b.pairs_expired);
  EXPECT_EQ(a.pairs_dropped_full, b.pairs_dropped_full);
  EXPECT_EQ(a.pairs_in_memory, b.pairs_in_memory);
  EXPECT_EQ(bits(a.consumed_age_sum_s), bits(b.consumed_age_sum_s));
  EXPECT_EQ(bits(a.win_sum), bits(b.win_sum));
}

TEST(ServeDecide, FramesMatchDirectDecideCallsBitForBit) {
  qnet::LiveBroker direct(serve_config(), /*seed=*/42);
  qnet::LiveBroker served(serve_config(), /*seed=*/42);
  constexpr double kSpacingS = 1e-6;
  std::size_t next_direct = 0;
  std::size_t next_served = 0;
  const auto served_time = [&next_served] {
    return static_cast<double>(next_served++) * kSpacingS;
  };
  std::vector<DecisionEntry> entries;
  std::vector<qnet::LiveBroker::Decision> decisions;
  for (std::size_t f = 0; f < 60; ++f) {
    DecideRequestV2 req;
    req.source = static_cast<std::uint32_t>(f % 2);
    const std::size_t n = 1 + (f * 37) % 300;
    for (std::size_t k = 0; k < n; ++k) {
      req.inputs.push_back(static_cast<std::uint8_t>((f + k * 7) % 3 == 0));
    }
    std::vector<DecisionEntry> want;
    for (const std::uint8_t input : req.inputs) {
      want.push_back(pack_entry(direct.decide(
          req.source, input, static_cast<double>(next_direct++) * kSpacingS)));
    }
    const Served s =
        serve_decide(served, req, served_time, entries, decisions);
    ASSERT_TRUE(s.admitted) << "frame " << f;
    EXPECT_LE(s.t_admit, s.t_acquire);
    EXPECT_LE(s.t_acquire, s.t_decide);
    EXPECT_EQ(encode_decide_response(entries), encode_decide_response(want))
        << "frame " << f;
    EXPECT_EQ(served.pending(), 0u);
  }
  EXPECT_EQ(next_served, next_direct);
  const qnet::LiveBrokerStats a = direct.stats();
  const qnet::LiveBrokerStats b = served.stats();
  expect_same_draws(a, b);
  EXPECT_EQ(b.rejected, 0u);
  EXPECT_GT(b.hits, 0u);
  EXPECT_GT(b.fallbacks, 0u);
  EXPECT_TRUE(b.conservation_holds());
}

TEST(ServeDecide, EmptyOrOverBoundFrameIsRefusedAndDrawsNothing) {
  qnet::LiveBrokerConfig cfg = serve_config();
  cfg.max_pending = 16;
  qnet::LiveBroker broker(cfg, /*seed=*/7);
  qnet::LiveBroker fresh(cfg, /*seed=*/7);
  std::size_t times_asked = 0;
  const auto time = [&times_asked] {
    ++times_asked;
    return 1e-3;
  };
  std::vector<DecisionEntry> entries(3);
  entries[0].flags = 0xff;
  std::vector<qnet::LiveBroker::Decision> decisions;

  DecideRequestV2 empty;
  DecideRequestV2 over;
  over.source = 1;
  over.inputs.assign(17, 1);
  for (const DecideRequestV2* req : {&empty, &over}) {
    EXPECT_FALSE(serve_decide(broker, *req, time, entries, decisions).admitted)
        << req->inputs.size() << " inputs";
    EXPECT_EQ(broker.pending(), 0u);
  }
  EXPECT_EQ(times_asked, 0u);
  ASSERT_EQ(entries.size(), 3u);
  EXPECT_EQ(entries[0].flags, 0xff);
  const qnet::LiveBrokerStats refused = broker.stats();
  EXPECT_EQ(refused.requests, 0u);
  EXPECT_EQ(refused.pairs_generated, 0u);
  // The empty frame is not a rejection; the over-bound one rejects all 17.
  EXPECT_EQ(refused.rejected, 17u);

  // Nothing was drawn: the next frame matches a fresh broker's first.
  DecideRequestV2 ok;
  ok.source = 1;
  ok.inputs.assign(16, 0);
  std::vector<DecisionEntry> want;
  ASSERT_TRUE(serve_decide(broker, ok, time, entries, decisions).admitted);
  ASSERT_TRUE(serve_decide(fresh, ok, time, want, decisions).admitted);
  EXPECT_EQ(encode_decide_response(entries), encode_decide_response(want));
  expect_same_draws(broker.stats(), fresh.stats());
  EXPECT_EQ(broker.pending(), 0u);
}

#if FTL_OBS_ENABLED
TEST(ServeDecide, TagsItsStagesAndRestoresTheCallersTag) {
  qnet::LiveBroker broker(serve_config(), /*seed=*/1);
  const obs::ProfileStage caller("caller");
  const char* while_deciding = nullptr;
  DecideRequestV2 req;
  req.inputs = {1, 0};
  std::vector<DecisionEntry> entries;
  std::vector<qnet::LiveBroker::Decision> decisions;
  ASSERT_TRUE(serve_decide(
                  broker, req,
                  [&while_deciding] {
                    while_deciding = obs::profile_stage();
                    return 0.0;
                  },
                  entries, decisions)
                  .admitted);
  EXPECT_STREQ(while_deciding, "pair_acquire");
  EXPECT_STREQ(obs::profile_stage(), "caller");
}
#endif  // FTL_OBS_ENABLED

}  // namespace
}  // namespace ftl::coordd
