#include "ftlcoordd/daemon.hpp"

#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <optional>
#include <string>
#include <string_view>
#include <thread>

#include "ftlcoordd/net.hpp"
#include "ftlcoordd/protocol.hpp"
#include "ftlcoordd/serve.hpp"
#include "obs/export.hpp"
#include "obs/profiler.hpp"
#include "obs/trace.hpp"

namespace ftl::coordd {

namespace {

using Clock = std::chrono::steady_clock;

/// Serving-path decision latency: per-decision cost of a batched decide,
/// dominated by the broker pool operation (tens of ns) — the histogram's
/// upper edge leaves room for scheduling noise.
constexpr double kLatencyHistHi = 50e-6;

/// Per-batch stage times run from sub-microsecond (admission) to hundreds
/// of microseconds (socket read on a loaded wire); 2 ms of range keeps the
/// tail visible without washing out the bulk.
constexpr double kStageHistHiUs = 2000.0;
constexpr std::size_t kStageHistBins = 80;

/// Sliding window: 10 one-second epochs, so the /metrics windowed
/// percentile gauges describe roughly the last ten seconds of traffic.
constexpr std::size_t kWindowEpochs = 10;
constexpr std::chrono::milliseconds kWindowEpochLen{1000};

/// Span labels for deterministic child span ids: 0 is the server root
/// span, stages follow at 1 + stage index.
constexpr std::uint64_t kRootSpanLabel = 0;

/// Refill cadence of the daemon's refill thread. decide() resolves every
/// arrival up to the request time itself, so the refill thread only keeps
/// eviction and the pair metrics fresh across idle spells.
constexpr std::chrono::microseconds kProducerPeriod{200};

std::uint64_t steady_ns(Clock::time_point tp) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          tp.time_since_epoch())
          .count());
}

/// On-demand profile bounds: long enough for a useful flamegraph, short
/// enough that the (single-threaded) metrics acceptor is never wedged for
/// more than half a minute.
constexpr long kProfileMinSeconds = 1;
constexpr long kProfileMaxSeconds = 30;
constexpr long kProfileDefaultSeconds = 5;
constexpr long kProfileMinHz = 1;
constexpr long kProfileMaxHz = 1000;
constexpr long kProfileDefaultHz = 99;

/// A parsed HTTP request line ("GET /profile?seconds=2 HTTP/1.1").
struct RequestLine {
  std::string method;
  std::string path;   // target up to '?'
  std::string query;  // after '?', possibly empty
};

/// Parses the first line of `request`; nullopt when it is not a
/// three-token HTTP request line with an absolute path target.
std::optional<RequestLine> parse_request_line(std::string_view request) {
  const std::size_t eol = request.find("\r\n");
  std::string_view line =
      eol == std::string_view::npos ? request : request.substr(0, eol);
  const std::size_t sp1 = line.find(' ');
  if (sp1 == std::string_view::npos || sp1 == 0) return std::nullopt;
  const std::size_t sp2 = line.find(' ', sp1 + 1);
  if (sp2 == std::string_view::npos || sp2 == sp1 + 1) return std::nullopt;
  const std::string_view target = line.substr(sp1 + 1, sp2 - sp1 - 1);
  const std::string_view version = line.substr(sp2 + 1);
  if (target.empty() || target[0] != '/') return std::nullopt;
  if (version.rfind("HTTP/", 0) != 0) return std::nullopt;
  RequestLine out;
  out.method = std::string(line.substr(0, sp1));
  const std::size_t q = target.find('?');
  out.path = std::string(target.substr(0, q));
  if (q != std::string_view::npos) out.query = std::string(target.substr(q + 1));
  return out;
}

/// Value of `key` in an `a=1&b=2` query string, clamped into
/// [lo, hi]; `fallback` when absent or not a number.
long query_long(std::string_view query, std::string_view key, long fallback,
                long lo, long hi) {
  long value = fallback;
  std::size_t pos = 0;
  while (pos <= query.size()) {
    const std::size_t amp = query.find('&', pos);
    const std::string_view pair = query.substr(
        pos, amp == std::string_view::npos ? std::string_view::npos
                                           : amp - pos);
    const std::size_t eq = pair.find('=');
    if (eq != std::string_view::npos && pair.substr(0, eq) == key) {
      const std::string digits(pair.substr(eq + 1));
      char* end = nullptr;
      errno = 0;
      const long parsed = std::strtol(digits.c_str(), &end, 10);
      if (errno == 0 && end != digits.c_str() && *end == '\0') value = parsed;
    }
    if (amp == std::string_view::npos) break;
    pos = amp + 1;
  }
  return std::clamp(value, lo, hi);
}

/// Writes a full HTTP/1.0 response. HEAD requests get the headers (with
/// the Content-Length the body *would* have) and no body bytes.
void send_http(int fd, std::string_view status, std::string_view content_type,
               std::string_view body, bool head_only) {
  std::string response = "HTTP/1.0 ";
  response += status;
  response += "\r\nContent-Type: ";
  response += content_type;
  response += "\r\nContent-Length: " + std::to_string(body.size()) +
              "\r\nConnection: close\r\n\r\n";
  if (!head_only) response += body;
  (void)write_full(fd, response.data(), response.size());
}

}  // namespace

const char* stage_name(Stage s) noexcept {
  switch (s) {
    case Stage::kSocketRead:
      return "socket_read";
    case Stage::kAdmission:
      return "admission";
    case Stage::kPairAcquire:
      return "pair_acquire";
    case Stage::kDecide:
      return "decide";
    case Stage::kReplyWrite:
      return "reply_write";
  }
  return "unknown";
}

Daemon::Daemon(const DaemonConfig& cfg)
    : cfg_(cfg),
      m_connections_(obs::registry().counter("qnet.live.connections")),
      m_frames_(obs::registry().counter("qnet.live.frames")),
      m_malformed_(obs::registry().counter("qnet.live.malformed")),
      m_scrapes_(obs::registry().counter("qnet.live.metrics_scrapes")),
      m_decision_latency_(obs::registry().histogram(
          "qnet.live.decision_latency_s", 0.0, kLatencyHistHi, 50)),
      m_deadline_hit_(obs::registry().counter("coordd.deadline.hit")),
      m_profile_requests_(obs::registry().counter("coordd.profile.requests")) {
  // Help strings for the daemon-owned families, surfaced as `# HELP` lines
  // on /metrics. Keyed by dotted name; idempotent across Daemon instances.
  obs::set_metric_help("qnet.live.requests",
                       "Decision requests served by the live broker.");
  obs::set_metric_help("qnet.live.connections",
                       "Decide-protocol TCP connections accepted.");
  obs::set_metric_help("qnet.live.frames",
                       "Protocol frames received on decide connections.");
  obs::set_metric_help("qnet.live.malformed",
                       "Frames rejected as malformed or out of range.");
  obs::set_metric_help("qnet.live.metrics_scrapes",
                       "HTTP scrapes served on /metrics.");
  obs::set_metric_help("qnet.live.decision_latency_s",
                       "Per-decision broker latency within a batch.");
  obs::set_metric_help(
      "coordd.stage_us",
      "Per-batch serving-path stage latency in microseconds, by stage.");
  obs::set_metric_help("coordd.deadline.hit",
                       "Batches that met their deadline budget.");
  obs::set_metric_help(
      "coordd.deadline.miss",
      "Batches that blew their deadline budget, by first late stage.");
  obs::set_metric_help("coordd.profile.requests",
                       "On-demand CPU profile requests on /profile.");
  for (std::size_t i = 0; i < kNumStages; ++i) {
    const obs::Labels labels{{"stage", stage_name(static_cast<Stage>(i))}};
    m_stage_us_[i] = &obs::registry().histogram(
        "coordd.stage_us", 0.0, kStageHistHiUs, kStageHistBins, labels);
    m_stage_window_[i] = std::make_unique<obs::SlidingHistogram>(
        "coordd.stage_us", 0.0, kStageHistHiUs, kStageHistBins, kWindowEpochs,
        kWindowEpochLen, nullptr, labels);
    m_deadline_miss_[i] =
        &obs::registry().counter("coordd.deadline.miss", labels);
  }
}

Daemon::~Daemon() { stop(); }

bool Daemon::start() {
  if (running_.load()) return true;
  broker_ = std::make_unique<qnet::LiveBroker>(cfg_.broker, cfg_.seed);
  // The serving clock's origin, set before any thread that reads it starts.
  t0_ = Clock::now();
  listen_fd_ = listen_tcp(cfg_.port);
  metrics_listen_fd_ = listen_tcp(cfg_.metrics_port);
  if (listen_fd_ < 0 || metrics_listen_fd_ < 0) {
    close_fd(listen_fd_);
    close_fd(metrics_listen_fd_);
    listen_fd_ = metrics_listen_fd_ = -1;
    broker_.reset();
    return false;
  }
  port_ = bound_port(listen_fd_);
  metrics_port_ = bound_port(metrics_listen_fd_);
  stopping_.store(false);
  running_.store(true);
  refill_ = std::thread([this] { refill_loop(); });
  acceptor_ = std::thread([this] { accept_loop(); });
  metrics_acceptor_ = std::thread([this] { metrics_loop(); });
  return true;
}

void Daemon::stop() {
  if (!running_.exchange(false)) return;
  stopping_.store(true);
  // Closing the listeners wakes the acceptors' poll. The members are only
  // reassigned after the join: the acceptor threads read their fd at entry,
  // so the close itself is the only thing racing the poll (benign by
  // design — POLLNVAL/timeout both re-check stopping_).
  close_fd(listen_fd_);
  close_fd(metrics_listen_fd_);
  if (acceptor_.joinable()) acceptor_.join();
  if (metrics_acceptor_.joinable()) metrics_acceptor_.join();
  listen_fd_ = metrics_listen_fd_ = -1;
  // Unblock handlers stuck in read_frame, then join them.
  std::vector<std::thread> handlers;
  {
    const std::lock_guard<std::mutex> lock(conns_mu_);
    for (const int fd : live_fds_) shutdown_fd(fd);
    handlers.swap(handlers_);
  }
  for (std::thread& h : handlers) {
    if (h.joinable()) h.join();
  }
  if (refill_.joinable()) refill_.join();
  // Final window flush so a run report written right after stop() carries
  // the last live percentiles instead of stale gauges.
  flush_stage_windows();
}

double Daemon::now_s() const {
  return std::chrono::duration<double>(Clock::now() - t0_).count();
}

void Daemon::refill_loop() {
  while (!stopping_.load()) {
    const double now = now_s();
    for (std::size_t i = 0; i < cfg_.broker.sources; ++i) {
      broker_->produce_until(i, now);
    }
    std::this_thread::sleep_for(kProducerPeriod);
  }
}

void Daemon::flush_stage_windows() {
  for (auto& w : m_stage_window_) {
    if (w) w->flush();
  }
}

void Daemon::track_fd(int fd) {
  const std::lock_guard<std::mutex> lock(conns_mu_);
  live_fds_.push_back(fd);
}

void Daemon::untrack_fd(int fd) {
  const std::lock_guard<std::mutex> lock(conns_mu_);
  live_fds_.erase(std::remove(live_fds_.begin(), live_fds_.end(), fd),
                  live_fds_.end());
}

void Daemon::cleanup(int fd) {
  untrack_fd(fd);
  close_fd(fd);
}

void Daemon::accept_loop() {
  const int lfd = listen_fd_;  // read once; stop() reassigns after join
  while (!stopping_.load()) {
    const int fd = accept_with_timeout(lfd, /*timeout_ms=*/100);
    if (fd == -1) continue;  // timeout; re-check stopping_
    if (fd == -2) break;     // listener closed
    m_connections_.inc();
    track_fd(fd);
    const std::lock_guard<std::mutex> lock(conns_mu_);
    handlers_.emplace_back([this, fd] { handle_connection(fd); });
  }
}

void Daemon::metrics_loop() {
  const int lfd = metrics_listen_fd_;  // read once; see accept_loop
  while (!stopping_.load()) {
    const int fd = accept_with_timeout(lfd, /*timeout_ms=*/100);
    if (fd == -1) continue;
    if (fd == -2) break;
    serve_metrics_once(fd);
    close_fd(fd);
  }
}

void Daemon::serve_metrics_once(int fd) {
  // Minimal HTTP/1.0 server: read the request head, parse the request
  // line, route. Exactly two resources exist — /metrics (GET/HEAD) and
  // /profile (GET) — and everything else is an error status, so a typo'd
  // scrape URL fails loudly instead of silently receiving the exposition.
  // Responses go through write_full, which loops over partial writes and
  // sends with MSG_NOSIGNAL so a scraper hanging up mid-body surfaces as
  // EPIPE, not a fatal SIGPIPE — large registries (many labeled
  // histograms) routinely exceed one socket buffer.
  constexpr std::size_t kMaxRequestBytes = 4096;
  constexpr std::string_view kTextPlain = "text/plain; charset=utf-8";
  std::string request;
  char buf[1024];
  while (request.size() < kMaxRequestBytes &&
         request.find("\r\n\r\n") == std::string::npos) {
    ssize_t got;
    do {
      got = ::read(fd, buf, sizeof buf);
    } while (got < 0 && errno == EINTR);
    if (got <= 0) break;
    request.append(buf, static_cast<std::size_t>(got));
    // A bare request line with no headers still routes: curl always sends
    // a Host header, but the tests (and netcat users) may not.
    if (request.find("\r\n") != std::string::npos) break;
  }

  const std::optional<RequestLine> line = parse_request_line(request);
  if (!line) {
    send_http(fd, "400 Bad Request", kTextPlain, "malformed request line\n",
              /*head_only=*/false);
    return;
  }
  const bool is_get = line->method == "GET";
  const bool is_head = line->method == "HEAD";

  if (line->path == "/metrics") {
    if (!is_get && !is_head) {
      send_http(fd, "405 Method Not Allowed", kTextPlain,
                "only GET and HEAD are supported on /metrics\n", false);
      return;
    }
    m_scrapes_.inc();
    // Publish fresh windowed percentiles before snapshotting, so every
    // scrape sees the last ~10 s of stage latency, not gauges from the
    // previous scrape.
    flush_stage_windows();
    const std::string body = obs::prometheus_text(obs::registry().snapshot());
    send_http(fd, "200 OK", "text/plain; version=0.0.4; charset=utf-8", body,
              is_head);
    return;
  }
  if (line->path == "/profile") {
    if (!is_get) {
      // HEAD is refused too: the Content-Length would require actually
      // running the profile for N seconds.
      send_http(fd, "405 Method Not Allowed", kTextPlain,
                "only GET is supported on /profile\n", false);
      return;
    }
    serve_profile_once(fd, line->query);
    return;
  }
  send_http(fd, "404 Not Found", kTextPlain,
            "unknown path (try /metrics or /profile?seconds=N&hz=H)\n",
            false);
}

void Daemon::serve_profile_once(int fd, std::string_view query) {
  m_profile_requests_.inc();
  if (!obs::kEnabled) {
    send_http(fd, "501 Not Implemented", "text/plain; charset=utf-8",
              "profiler disabled: daemon built with FTL_OBS_ENABLED=OFF\n",
              false);
    return;
  }
  const long seconds =
      query_long(query, "seconds", kProfileDefaultSeconds, kProfileMinSeconds,
                 kProfileMaxSeconds);
  const long hz = query_long(query, "hz", kProfileDefaultHz, kProfileMinHz,
                             kProfileMaxHz);
  obs::ProfilerOptions opts;
  opts.hz = static_cast<int>(hz);
  // The profiler itself is the one-session guard: a concurrent /profile
  // (or a bench profiling in the same process) owns SIGPROF until it
  // stops, and a second start() just fails.
  if (!obs::profiler().start(opts)) {
    send_http(fd, "409 Conflict", "text/plain; charset=utf-8",
              "another profile session is already running\n", false);
    return;
  }
  // Sample for the requested window, but wake every 50 ms so daemon
  // shutdown is never stuck behind a 30 s profile.
  const auto deadline = Clock::now() + std::chrono::seconds(seconds);
  while (Clock::now() < deadline && !stopping_.load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  obs::profiler().stop();
  const std::string body = obs::profiler().folded();
  send_http(fd, "200 OK", "text/plain; charset=utf-8", body, false);
}

bool Daemon::handle_decide(int fd, const DecideRequestV2& req,
                           Clock::time_point t_loop,
                           Clock::time_point t_read,
                           std::vector<DecisionEntry>& entries,
                           std::vector<qnet::LiveBroker::Decision>& decisions) {
  const auto [admitted, t_admit, t_acquire, t_decide] = serve_decide(
      *broker_, req, [this] { return now_s(); }, entries, decisions);
  if (!admitted) {
    // The client retries after backing off (or sheds load).
    return write_frame(fd, encode_status_response(Status::kRejected));
  }
  const std::size_t n = req.inputs.size();
  // Deadline evaluation falls inside the reply-write stage's time span,
  // so the profile tag follows it there.
  obs::set_profile_stage(stage_name(Stage::kReplyWrite));

  // Deadline attribution: the budget runs from the client's send
  // timestamp (same steady clock — localhost only); the miss belongs to
  // the first stage whose *end* saw the budget exhausted. Decisions
  // already late at the end of the decide stage carry kDeadlineMissBit
  // back to the client; a miss that only happens inside reply_write is
  // counted server-side but the bits are already on the wire.
  const bool has_deadline =
      req.deadline_us > 0 && req.client_send_steady_ns > 0;
  const std::uint64_t deadline_ns =
      req.client_send_steady_ns +
      static_cast<std::uint64_t>(req.deadline_us) * 1000u;
  int miss_stage = -1;
  if (has_deadline) {
    const Clock::time_point boundaries[4] = {t_read, t_admit, t_acquire,
                                             t_decide};
    for (int i = 0; i < 4; ++i) {
      if (steady_ns(boundaries[i]) > deadline_ns) {
        miss_stage = i;
        break;
      }
    }
    if (miss_stage >= 0) {
      for (DecisionEntry& e : entries) {
        e.flags |= DecisionEntry::kDeadlineMissBit;
      }
    }
  }

  const bool write_ok = write_frame(fd, encode_decide_response(entries));
  const auto t_write = Clock::now();
  obs::set_profile_stage(nullptr);

  if (has_deadline) {
    if (miss_stage < 0 && steady_ns(t_write) > deadline_ns) {
      miss_stage = static_cast<int>(Stage::kReplyWrite);
    }
    if (miss_stage >= 0) {
      m_deadline_miss_[miss_stage]->inc();
    } else {
      m_deadline_hit_.inc();
    }
  }

  // Stage latency, cumulative and windowed. One weighted observation of n
  // samples keeps qnet.live.decision_latency_s per-decision.
  const double stage_us[kNumStages] = {
      std::chrono::duration<double, std::micro>(t_read - t_loop).count(),
      std::chrono::duration<double, std::micro>(t_admit - t_read).count(),
      std::chrono::duration<double, std::micro>(t_acquire - t_admit).count(),
      std::chrono::duration<double, std::micro>(t_decide - t_acquire).count(),
      std::chrono::duration<double, std::micro>(t_write - t_decide).count()};
  for (std::size_t i = 0; i < kNumStages; ++i) {
    m_stage_us_[i]->observe(stage_us[i]);
    m_stage_window_[i]->observe(stage_us[i]);
  }
  const double per_decision_s =
      std::chrono::duration<double>(t_acquire - t_admit).count() /
      static_cast<double>(n);
  m_decision_latency_.observe(per_decision_s, n);

  // Stage spans for every batch the client traced (sampling is the
  // client's choice): a server root span parented to the client's batch
  // span, one child per stage. Ids derive from the propagated context, so
  // they are stable for a stepped schedule.
  obs::Tracer& tracer = obs::tracer();
  if (req.trace_id != 0 && tracer.active()) {
    const obs::TraceContext client_ctx{req.trace_id, req.parent_span_id};
    const obs::TraceContext root = client_ctx.child(kRootSpanLabel);
    tracer.record_span("serve_batch", "coordd", tracer.ts_us(t_loop),
                       std::chrono::duration<double, std::micro>(t_write -
                                                                 t_loop)
                           .count(),
                       root.trace_id, root.span_id, client_ctx.span_id);
    const Clock::time_point starts[kNumStages] = {t_loop, t_read, t_admit,
                                                  t_acquire, t_decide};
    for (std::size_t i = 0; i < kNumStages; ++i) {
      tracer.record_span(stage_name(static_cast<Stage>(i)), "coordd",
                         tracer.ts_us(starts[i]), stage_us[i], root.trace_id,
                         root.child_span_id(1 + i), root.span_id);
    }
    if (has_deadline) {
      if (miss_stage >= 0) {
        tracer.record_instant_tagged(
            "deadline_miss", "coordd", root.trace_id,
            stage_name(static_cast<Stage>(miss_stage)));
      } else {
        tracer.record_instant_tagged("deadline_hit", "coordd", root.trace_id,
                                     "none");
      }
    }
  }
  return write_ok;
}

void Daemon::handle_connection(int fd) {
  std::vector<std::uint8_t> payload;
  std::vector<DecisionEntry> entries;
  std::vector<qnet::LiveBroker::Decision> decisions;
  while (!stopping_.load()) {
    const auto t_loop = Clock::now();
    obs::set_profile_stage(stage_name(Stage::kSocketRead));
    if (!read_frame(fd, payload)) break;
    const auto t_read = Clock::now();
    obs::set_profile_stage(stage_name(Stage::kAdmission));
    m_frames_.inc();
    ByteReader r(payload.data(), payload.size());
    const auto type = static_cast<MsgType>(r.u8());
    if (!r.ok()) {
      m_malformed_.inc();
      if (!write_frame(fd, encode_status_response(Status::kMalformed))) break;
      continue;
    }
    switch (type) {
      case MsgType::kDecideV2: {
        auto req = decode_decide_request_v2(r);
        if (!req || req->source >= cfg_.broker.sources) {
          m_malformed_.inc();
          if (!write_frame(fd, encode_status_response(Status::kMalformed))) {
            return cleanup(fd);
          }
          break;
        }
        if (!handle_decide(fd, *req, t_loop, t_read, entries, decisions)) {
          return cleanup(fd);
        }
        break;
      }
      case MsgType::kStats: {
        const qnet::LiveBrokerStats s = broker_->stats();
        StatsReply reply;
        reply.requests = s.requests;
        reply.hits = s.hits;
        reply.fallbacks = s.fallbacks;
        reply.rejected = s.rejected;
        reply.rounds_won = s.rounds_won;
        reply.pairs_generated = s.pairs_generated;
        reply.pairs_delivered = s.pairs_delivered;
        reply.pairs_lost_fiber = s.pairs_lost_fiber;
        reply.pairs_expired = s.pairs_expired;
        reply.pairs_dropped_full = s.pairs_dropped_full;
        reply.pairs_in_memory = s.pairs_in_memory;
        if (!write_frame(fd, encode_stats_response(reply))) {
          return cleanup(fd);
        }
        break;
      }
      default:
        m_malformed_.inc();
        if (!write_frame(fd, encode_status_response(Status::kMalformed))) {
          return cleanup(fd);
        }
        break;
    }
  }
  obs::set_profile_stage(nullptr);
  cleanup(fd);
}

}  // namespace ftl::coordd
