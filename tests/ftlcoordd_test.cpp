// In-process integration tests for the ftlcoordd daemon: real sockets on
// ephemeral loopback ports, the real LiveBroker behind them, and the real
// loadgen as the client. The CI smoke job exercises the same path across
// process boundaries; this suite keeps it debuggable under one address
// space (and one sanitizer run).
#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "ftlcoordd/daemon.hpp"
#include "ftlcoordd/loadgen.hpp"
#include "ftlcoordd/net.hpp"
#include "ftlcoordd/protocol.hpp"
#include "obs/json.hpp"
#include "obs/profiler.hpp"
#include "obs/spanctx.hpp"
#include "obs/trace.hpp"

namespace ftl::coordd {
namespace {

DaemonConfig test_config() {
  DaemonConfig cfg;
  cfg.port = 0;          // ephemeral
  cfg.metrics_port = 0;  // ephemeral
  cfg.seed = 42;
  cfg.broker.sources = 2;
  cfg.broker.qnet.pair_rate_hz = 5e5;
  cfg.broker.qnet.fiber_km = 0.0;
  return cfg;
}

TEST(Ftlcoordd, StartServeStop) {
  Daemon daemon(test_config());
  ASSERT_TRUE(daemon.start());
  ASSERT_TRUE(daemon.running());
  ASSERT_GT(daemon.port(), 0);
  ASSERT_GT(daemon.metrics_port(), 0);

  LoadgenConfig lg;
  lg.port = daemon.port();
  lg.threads = 2;
  lg.sources = 2;
  lg.batch = 256;
  lg.decisions = 100000;
  std::ostringstream log;
  const LoadgenResult result = run_loadgen(lg, log);
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_GE(result.decisions_ok, lg.decisions);
  EXPECT_EQ(result.decisions_ok,
            result.server_stats.hits + result.server_stats.fallbacks);
  // The decide responses and the daemon's own counters must agree.
  EXPECT_EQ(result.decisions_ok, result.server_stats.requests);
  EXPECT_EQ(result.rounds_won, result.server_stats.rounds_won);
  EXPECT_EQ(result.quantum, result.server_stats.hits);

  daemon.stop();
  EXPECT_FALSE(daemon.running());

  // One latency sample per served decision. The daemon observes a frame's
  // latency after writing its reply, so the count is whole only after
  // stop(). The registry is process-wide; the identity holds across every
  // stopped daemon of this binary.
  if (obs::kEnabled) {
    const obs::Snapshot snap = obs::registry().snapshot();
    std::uint64_t requests = 0;
    for (const auto& c : snap.counters) {
      if (c.name == "qnet.live.requests") requests = c.value;
    }
    std::size_t latency_samples = 0;
    for (const auto& h : snap.histograms) {
      EXPECT_NE(h.name, "qnet.live.pair_age_us");
      if (h.name == "qnet.live.decision_latency_s") latency_samples = h.total;
    }
    EXPECT_GE(requests, result.decisions_ok);
    EXPECT_EQ(latency_samples, requests);
  }
}

TEST(Ftlcoordd, StopIsIdempotentAndRestartable) {
  Daemon daemon(test_config());
  ASSERT_TRUE(daemon.start());
  daemon.stop();
  daemon.stop();
  ASSERT_TRUE(daemon.start());
  EXPECT_TRUE(daemon.running());
  daemon.stop();
}

TEST(Ftlcoordd, MalformedFramesGetStatusNotDisconnect) {
  Daemon daemon(test_config());
  ASSERT_TRUE(daemon.start());
  const int fd = connect_tcp("127.0.0.1", daemon.port());
  ASSERT_GE(fd, 0);

  std::vector<std::uint8_t> payload;
  // Unknown message type.
  ASSERT_TRUE(write_frame(fd, {0x7f}));
  ASSERT_TRUE(read_frame(fd, payload));
  EXPECT_EQ(static_cast<Status>(payload.at(0)), Status::kMalformed);

  // Truncated decide body.
  ASSERT_TRUE(write_frame(
      fd, {static_cast<std::uint8_t>(MsgType::kDecideV2), 0x00, 0x00}));
  ASSERT_TRUE(read_frame(fd, payload));
  EXPECT_EQ(static_cast<Status>(payload.at(0)), Status::kMalformed);

  // Out-of-range source index.
  DecideRequestV2 req;
  req.source = 99;
  req.inputs = {0, 1};
  ASSERT_TRUE(write_frame(fd, encode_decide_request_v2(req)));
  ASSERT_TRUE(read_frame(fd, payload));
  EXPECT_EQ(static_cast<Status>(payload.at(0)), Status::kMalformed);

  // The connection must still serve a valid request afterwards.
  req.source = 0;
  ASSERT_TRUE(write_frame(fd, encode_decide_request_v2(req)));
  ASSERT_TRUE(read_frame(fd, payload));
  const auto entries = decode_decide_response(payload);
  ASSERT_TRUE(entries.has_value());
  EXPECT_EQ(entries->size(), 2u);

  close_fd(fd);
  daemon.stop();
}

TEST(Ftlcoordd, OversizedBatchIsRejectedByAdmission) {
  DaemonConfig cfg = test_config();
  cfg.broker.max_pending = 16;
  Daemon daemon(cfg);
  ASSERT_TRUE(daemon.start());
  const int fd = connect_tcp("127.0.0.1", daemon.port());
  ASSERT_GE(fd, 0);

  DecideRequestV2 req;
  req.source = 0;
  req.inputs.assign(64, 0);  // 64 > max_pending
  std::vector<std::uint8_t> payload;
  ASSERT_TRUE(write_frame(fd, encode_decide_request_v2(req)));
  ASSERT_TRUE(read_frame(fd, payload));
  Status status = Status::kOk;
  EXPECT_FALSE(decode_decide_response(payload, &status).has_value());
  EXPECT_EQ(status, Status::kRejected);
  EXPECT_EQ(daemon.broker().stats().rejected, 64u);

  close_fd(fd);
  daemon.stop();
}

TEST(Ftlcoordd, MetricsPortServesPrometheusText) {
  Daemon daemon(test_config());
  ASSERT_TRUE(daemon.start());

  // Drive a little traffic so the scrape has non-zero counters.
  const int dfd = connect_tcp("127.0.0.1", daemon.port());
  ASSERT_GE(dfd, 0);
  DecideRequestV2 req;
  req.source = 0;
  req.inputs.assign(32, 1);
  std::vector<std::uint8_t> payload;
  ASSERT_TRUE(write_frame(dfd, encode_decide_request_v2(req)));
  ASSERT_TRUE(read_frame(dfd, payload));
  close_fd(dfd);

  const int fd = connect_tcp("127.0.0.1", daemon.metrics_port());
  ASSERT_GE(fd, 0);
  const std::string get = "GET /metrics HTTP/1.0\r\n\r\n";
  ASSERT_TRUE(write_full(fd, get.data(), get.size()));
  std::string response;
  char buf[4096];
  for (;;) {
    const ssize_t got = ::read(fd, buf, sizeof buf);
    if (got <= 0) break;
    response.append(buf, static_cast<std::size_t>(got));
  }
  close_fd(fd);
  daemon.stop();

  EXPECT_NE(response.find("HTTP/1.0 200 OK"), std::string::npos);
  EXPECT_NE(response.find("text/plain; version=0.0.4"), std::string::npos);
  // Under obs-OFF the registry is empty, so the scrape is a valid but
  // bodyless exposition; the metric families only exist with obs on.
  if (ftl::obs::kEnabled) {
    EXPECT_NE(response.find("# HELP ftl_qnet_live_requests_total"),
              std::string::npos);
    EXPECT_NE(response.find("# TYPE ftl_qnet_live_requests_total counter"),
              std::string::npos);
    EXPECT_NE(response.find("ftl_qnet_live_requests_total"),
              std::string::npos);
  }
}

/// One HTTP exchange against the daemon's metrics port: write the request,
/// read to EOF (the server closes after one response).
std::string http_request(std::uint16_t port, const std::string& request) {
  const int fd = connect_tcp("127.0.0.1", port);
  EXPECT_GE(fd, 0);
  if (fd < 0) return {};
  EXPECT_TRUE(write_full(fd, request.data(), request.size()));
  std::string response;
  char buf[4096];
  for (;;) {
    const ssize_t got = ::read(fd, buf, sizeof buf);
    if (got <= 0) break;
    response.append(buf, static_cast<std::size_t>(got));
  }
  close_fd(fd);
  return response;
}

/// Parsed Content-Length header value, or -1 when absent.
long content_length_of(const std::string& response) {
  const std::size_t pos = response.find("Content-Length: ");
  if (pos == std::string::npos) return -1;
  return std::strtol(response.c_str() + pos + 16, nullptr, 10);
}

TEST(FtlcoorddHttp, UnknownPathIs404) {
  Daemon daemon(test_config());
  ASSERT_TRUE(daemon.start());
  const std::string response = http_request(
      daemon.metrics_port(), "GET /nope HTTP/1.0\r\n\r\n");
  daemon.stop();
  EXPECT_NE(response.find("HTTP/1.0 404 Not Found"), std::string::npos);
  EXPECT_NE(response.find("unknown path"), std::string::npos);
}

TEST(FtlcoorddHttp, MalformedRequestLineIs400) {
  Daemon daemon(test_config());
  ASSERT_TRUE(daemon.start());
  const std::string garbage =
      http_request(daemon.metrics_port(), "\x01\x02not-http\r\n\r\n");
  const std::string relative =
      http_request(daemon.metrics_port(), "GET metrics HTTP/1.0\r\n\r\n");
  daemon.stop();
  EXPECT_NE(garbage.find("HTTP/1.0 400 Bad Request"), std::string::npos);
  EXPECT_NE(relative.find("HTTP/1.0 400 Bad Request"), std::string::npos);
}

TEST(FtlcoorddHttp, NonGetMethodsAre405) {
  Daemon daemon(test_config());
  ASSERT_TRUE(daemon.start());
  const std::string post = http_request(
      daemon.metrics_port(),
      "POST /metrics HTTP/1.0\r\nContent-Length: 0\r\n\r\n");
  const std::string head_profile = http_request(
      daemon.metrics_port(), "HEAD /profile HTTP/1.0\r\n\r\n");
  daemon.stop();
  EXPECT_NE(post.find("HTTP/1.0 405 Method Not Allowed"), std::string::npos);
  EXPECT_NE(head_profile.find("HTTP/1.0 405 Method Not Allowed"),
            std::string::npos);
}

TEST(FtlcoorddHttp, HeadMetricsHasContentLengthAndNoBody) {
  Daemon daemon(test_config());
  ASSERT_TRUE(daemon.start());
  const std::string get =
      http_request(daemon.metrics_port(), "GET /metrics HTTP/1.0\r\n\r\n");
  const std::string head =
      http_request(daemon.metrics_port(), "HEAD /metrics HTTP/1.0\r\n\r\n");
  daemon.stop();

  // GET: the advertised Content-Length matches the body actually sent.
  ASSERT_NE(get.find("HTTP/1.0 200 OK"), std::string::npos);
  const std::size_t get_body = get.find("\r\n\r\n");
  ASSERT_NE(get_body, std::string::npos);
  EXPECT_EQ(content_length_of(get),
            static_cast<long>(get.size() - (get_body + 4)));

  // HEAD: same headers (the would-be body length — nonzero whenever the
  // registry is live; obs-OFF snapshots are empty), zero body bytes.
  ASSERT_NE(head.find("HTTP/1.0 200 OK"), std::string::npos);
  if (obs::kEnabled) {
    EXPECT_GT(content_length_of(head), 0);
  } else {
    EXPECT_EQ(content_length_of(head), 0);
  }
  const std::size_t head_body = head.find("\r\n\r\n");
  ASSERT_NE(head_body, std::string::npos);
  EXPECT_EQ(head.size(), head_body + 4);
}

#if FTL_OBS_ENABLED
TEST(FtlcoorddHttp, ProfileEndpointReturnsFoldedStacks) {
  Daemon daemon(test_config());
  ASSERT_TRUE(daemon.start());

  // Hammer the decide path from a client thread while the profile runs, so
  // the process is actually burning CPU (the profiler samples on process
  // CPU time, not wall time).
  std::atomic<bool> stop_client{false};
  std::thread client([&] {
    const int fd = connect_tcp("127.0.0.1", daemon.port());
    if (fd < 0) return;
    DecideRequestV2 req;
    req.source = 0;
    req.inputs.assign(256, 1);
    std::vector<std::uint8_t> payload;
    while (!stop_client.load()) {
      if (!write_frame(fd, encode_decide_request_v2(req))) break;
      if (!read_frame(fd, payload)) break;
    }
    close_fd(fd);
  });

  const std::string response = http_request(
      daemon.metrics_port(), "GET /profile?seconds=1&hz=997 HTTP/1.0\r\n\r\n");
  stop_client.store(true);
  client.join();
  daemon.stop();

  ASSERT_NE(response.find("HTTP/1.0 200 OK"), std::string::npos) << response;
  const std::size_t body_at = response.find("\r\n\r\n");
  ASSERT_NE(body_at, std::string::npos);
  const std::string body = response.substr(body_at + 4);
  ASSERT_FALSE(body.empty());
  // Every line is `<stack> <count>` — the FlameGraph folded grammar.
  std::istringstream lines(body);
  std::string line;
  std::size_t n_lines = 0;
  while (std::getline(lines, line)) {
    if (line.empty()) continue;
    ++n_lines;
    const std::size_t sp = line.rfind(' ');
    ASSERT_NE(sp, std::string::npos) << line;
    EXPECT_GT(std::strtoul(line.c_str() + sp + 1, nullptr, 10), 0u) << line;
  }
  EXPECT_GT(n_lines, 0u);
}

TEST(FtlcoorddHttp, ConcurrentProfileSessionsConflict) {
  Daemon daemon(test_config());
  ASSERT_TRUE(daemon.start());
  // Arm the process-wide profiler directly: the daemon's /profile must
  // refuse to stack a second session on top of it.
  ASSERT_TRUE(obs::real::profiler().start({}));
  const std::string response = http_request(
      daemon.metrics_port(), "GET /profile?seconds=1 HTTP/1.0\r\n\r\n");
  obs::real::profiler().stop();
  daemon.stop();
  EXPECT_NE(response.find("HTTP/1.0 409 Conflict"), std::string::npos);
  EXPECT_NE(response.find("already running"), std::string::npos);
}
#else
TEST(FtlcoorddHttp, ProfileEndpointIs501UnderObsOff) {
  Daemon daemon(test_config());
  ASSERT_TRUE(daemon.start());
  const std::string response = http_request(
      daemon.metrics_port(), "GET /profile?seconds=1 HTTP/1.0\r\n\r\n");
  daemon.stop();
  EXPECT_NE(response.find("HTTP/1.0 501 Not Implemented"), std::string::npos);
}
#endif  // FTL_OBS_ENABLED

std::uint64_t now_steady_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

TEST(Ftlcoordd, DecideV2RoundTripWithGenerousDeadline) {
  Daemon daemon(test_config());
  ASSERT_TRUE(daemon.start());
  const int fd = connect_tcp("127.0.0.1", daemon.port());
  ASSERT_GE(fd, 0);

  DecideRequestV2 req;
  req.source = 0;
  req.trace_id = 0;  // unsampled: context rides the frame, no spans
  req.client_send_steady_ns = now_steady_ns();
  req.deadline_us = 10'000'000;  // 10 s: nothing on loopback misses this
  req.inputs = {0, 1, 1, 0};
  std::vector<std::uint8_t> payload;
  ASSERT_TRUE(write_frame(fd, encode_decide_request_v2(req)));
  ASSERT_TRUE(read_frame(fd, payload));
  const auto entries = decode_decide_response(payload);
  ASSERT_TRUE(entries.has_value());
  ASSERT_EQ(entries->size(), req.inputs.size());
  for (const DecisionEntry& e : *entries) {
    EXPECT_EQ(e.flags & DecisionEntry::kDeadlineMissBit, 0);
  }

  close_fd(fd);
  daemon.stop();
}

TEST(Ftlcoordd, DecideV2StaleTimestampSetsDeadlineMissBit) {
  Daemon daemon(test_config());
  ASSERT_TRUE(daemon.start());
  const int fd = connect_tcp("127.0.0.1", daemon.port());
  ASSERT_GE(fd, 0);

  // A batch "sent" 10 ms ago with a 1 us budget has blown the deadline
  // before the daemon even reads it: every entry must carry the miss bit,
  // and the miss must be attributed to the earliest stage boundary.
  DecideRequestV2 req;
  req.source = 1;
  req.client_send_steady_ns = now_steady_ns() - 10'000'000u;
  req.deadline_us = 1;
  req.inputs.assign(8, 1);
  std::vector<std::uint8_t> payload;
  ASSERT_TRUE(write_frame(fd, encode_decide_request_v2(req)));
  ASSERT_TRUE(read_frame(fd, payload));
  const auto entries = decode_decide_response(payload);
  ASSERT_TRUE(entries.has_value());
  ASSERT_EQ(entries->size(), 8u);
  for (const DecisionEntry& e : *entries) {
    EXPECT_NE(e.flags & DecisionEntry::kDeadlineMissBit, 0);
  }

  close_fd(fd);
  daemon.stop();
}

TEST(Ftlcoordd, RetiredV1DecideFrameIsMalformedNotFatal) {
  Daemon daemon(test_config());
  ASSERT_TRUE(daemon.start());
  const int fd = connect_tcp("127.0.0.1", daemon.port());
  ASSERT_GE(fd, 0);

  // Well-formed payloads of both retired types: a v1 decide frame (type 1,
  // u32 source 0, u32 count 3, three input bytes) and a report frame
  // (type 2, u32 source 1, u32 wins 30, u32 losses 10). Each is answered
  // like any unknown type.
  const std::vector<std::uint8_t> retired[] = {
      {0x01, 0x00, 0x00, 0x00, 0x00, 0x03, 0x00, 0x00, 0x00, 0x01, 0x00,
       0x01},
      {0x02, 0x01, 0x00, 0x00, 0x00, 0x1e, 0x00, 0x00, 0x00, 0x0a, 0x00,
       0x00, 0x00}};
  std::vector<std::uint8_t> payload;
  for (const std::vector<std::uint8_t>& frame : retired) {
    ASSERT_TRUE(write_frame(fd, frame));
    ASSERT_TRUE(read_frame(fd, payload));
    ASSERT_EQ(payload.size(), 1u);
    EXPECT_EQ(static_cast<Status>(payload.at(0)), Status::kMalformed)
        << "type " << int{frame.at(0)};
  }

  // The same connection then serves a v2 frame; without a deadline the
  // miss bit is never set.
  DecideRequestV2 v2;
  v2.source = 0;
  v2.inputs = {1, 0, 1};
  ASSERT_TRUE(write_frame(fd, encode_decide_request_v2(v2)));
  ASSERT_TRUE(read_frame(fd, payload));
  const auto entries = decode_decide_response(payload);
  ASSERT_TRUE(entries.has_value());
  EXPECT_EQ(entries->size(), 3u);
  for (const DecisionEntry& e : *entries) {
    EXPECT_EQ(e.flags & DecisionEntry::kDeadlineMissBit, 0);
  }

  close_fd(fd);
  daemon.stop();
}

TEST(Ftlcoordd, TruncatedV2FrameIsMalformedNotFatal) {
  Daemon daemon(test_config());
  ASSERT_TRUE(daemon.start());
  const int fd = connect_tcp("127.0.0.1", daemon.port());
  ASSERT_GE(fd, 0);

  // Type byte + source, then nothing: the v2 header needs 32 more bytes.
  std::vector<std::uint8_t> payload;
  ASSERT_TRUE(write_frame(fd, {static_cast<std::uint8_t>(MsgType::kDecideV2),
                               0x00, 0x00, 0x00, 0x00}));
  ASSERT_TRUE(read_frame(fd, payload));
  EXPECT_EQ(static_cast<Status>(payload.at(0)), Status::kMalformed);

  // The connection survives and serves a well-formed v2 frame.
  DecideRequestV2 req;
  req.source = 0;
  req.inputs = {1};
  ASSERT_TRUE(write_frame(fd, encode_decide_request_v2(req)));
  ASSERT_TRUE(read_frame(fd, payload));
  EXPECT_EQ(decode_decide_response(payload)->size(), 1u);

  close_fd(fd);
  daemon.stop();
}

#if FTL_OBS_ENABLED
TEST(Ftlcoordd, SampledV2BatchRecordsParentedServerSpans) {
  // In-process daemon and test share the global tracer, so the spans a
  // sampled v2 batch produces are directly inspectable.
  auto& tracer = obs::real::tracer();
  tracer.start();
  Daemon daemon(test_config());
  ASSERT_TRUE(daemon.start());
  const int fd = connect_tcp("127.0.0.1", daemon.port());
  ASSERT_GE(fd, 0);

  const obs::TraceContext ctx = obs::TraceContext::derive(42, 0, 0);
  DecideRequestV2 req;
  req.source = 0;
  req.trace_id = ctx.trace_id;
  req.parent_span_id = ctx.span_id;
  req.client_send_steady_ns = now_steady_ns();
  req.deadline_us = 10'000'000;
  req.inputs = {0, 1, 1};
  std::vector<std::uint8_t> payload;
  ASSERT_TRUE(write_frame(fd, encode_decide_request_v2(req)));
  ASSERT_TRUE(read_frame(fd, payload));
  ASSERT_TRUE(decode_decide_response(payload).has_value());

  close_fd(fd);
  daemon.stop();
  tracer.stop();

  const auto doc = obs::json::parse(tracer.json());
  ASSERT_TRUE(doc.has_value());
  const obs::json::Value* events = doc->find("traceEvents");
  ASSERT_NE(events, nullptr);
  const std::string want_trace = obs::trace_id_hex(ctx.trace_id);
  const obs::TraceContext root = ctx.child(0);
  std::set<std::string> names;
  bool serve_batch_parented_to_client = false;
  for (const obs::json::Value& e : events->array) {
    const obs::json::Value* args = e.find("args");
    if (args == nullptr || args->find("trace_id") == nullptr) continue;
    if (args->find("trace_id")->string != want_trace) continue;
    const std::string name = e.find("name")->string;
    names.insert(name);
    if (name == "serve_batch") {
      serve_batch_parented_to_client =
          obs::parse_trace_id_hex(args->find("parent_span_id")->string) ==
          ctx.span_id;
    } else if (args->find("parent_span_id") != nullptr && name != "serve_batch") {
      // Every stage span hangs off the server root span.
      EXPECT_EQ(obs::parse_trace_id_hex(args->find("parent_span_id")->string),
                root.span_id)
          << name;
    }
  }
  EXPECT_TRUE(serve_batch_parented_to_client);
  for (const char* stage : {"serve_batch", "socket_read", "admission",
                            "pair_acquire", "decide", "reply_write"}) {
    EXPECT_TRUE(names.count(stage) == 1) << stage;
  }
}
#endif  // FTL_OBS_ENABLED

/// One kStats exchange on an open decide connection.
std::optional<StatsReply> stats_over(int fd) {
  std::vector<std::uint8_t> payload;
  if (!write_frame(fd, encode_stats_request()) || !read_frame(fd, payload)) {
    return std::nullopt;
  }
  return decode_stats_response(payload);
}

TEST(Ftlcoordd, FramesCounterIncludesEachFrameBeforeItsReply) {
  Daemon daemon(test_config());
  ASSERT_TRUE(daemon.start());
  const int fd = connect_tcp("127.0.0.1", daemon.port());
  ASSERT_GE(fd, 0);
  const obs::Counter& frames = obs::registry().counter("qnet.live.frames");
  const std::uint64_t before = frames.value();

  DecideRequestV2 req;
  req.source = 1;
  req.inputs.assign(64, 1);
  std::vector<std::uint8_t> payload;
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(write_frame(fd, encode_decide_request_v2(req)));
    ASSERT_TRUE(read_frame(fd, payload));
  }
  const std::optional<StatsReply> stats = stats_over(fd);
  ASSERT_TRUE(stats.has_value());
  EXPECT_EQ(stats->requests, 3u * 64u);
  // Read right after the kStats reply, the counter already holds all four
  // frames: the daemon counts a frame when it reads it, before replying.
  if (obs::kEnabled) {
    EXPECT_EQ(frames.value() - before, 4u);
  }

  close_fd(fd);
  daemon.stop();
}

TEST(Ftlcoordd, IdleDaemonRefillsItsPoolsAcrossRestart) {
  Daemon daemon(test_config());
  for (int cycle = 0; cycle < 2; ++cycle) {
    ASSERT_TRUE(daemon.start());
    const int fd = connect_tcp("127.0.0.1", daemon.port());
    ASSERT_GE(fd, 0);
    // No decide frame is sent, so only the refill thread makes pairs.
    std::uint64_t generated = 0;
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(5);
    while (generated == 0 && std::chrono::steady_clock::now() < deadline) {
      const std::optional<StatsReply> stats = stats_over(fd);
      ASSERT_TRUE(stats.has_value());
      EXPECT_EQ(stats->requests, 0u);
      generated = stats->pairs_generated;
      if (generated == 0) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    }
    EXPECT_GT(generated, 0u) << "cycle " << cycle;
    close_fd(fd);
    daemon.stop();
  }
}

}  // namespace
}  // namespace ftl::coordd
