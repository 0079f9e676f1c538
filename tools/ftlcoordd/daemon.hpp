// ftlcoordd: the long-running coordination daemon.
//
// Serves the decide protocol (protocol.hpp) on a loopback TCP port,
// backed by a concurrent qnet::LiveBroker. The daemon owns the serving
// clock (seconds since start()) and one refill thread that advances every
// source's pair pool to that clock every 200 us; each decide frame goes
// through serve_decide (serve.hpp), the decide path that bench_ftlcoordd
// and the tests call too. A second loopback port speaks just enough HTTP
// for two resources: GET/HEAD /metrics answers with the Prometheus text
// exposition of the live metrics registry (src/obs/export), and GET
// /profile?seconds=N&hz=H runs the in-process sampling CPU profiler for N
// seconds and answers with FlameGraph folded stacks (one profile session
// at a time; 409 when busy, 501 when built with FTL_OBS_ENABLED=OFF).
// Unknown paths get 404, malformed request lines 400, other methods 405 —
// so `curl :<metrics_port>/metrics` works against a running daemon
// exactly like a node exporter.
//
// Threading model: one acceptor per port, one handler thread per
// connection, and the refill thread. Clients batch decisions per frame, so
// connection counts stay small (the loadgen uses one connection per worker
// thread) and the thread-per-connection model keeps the hot path free of
// any cross-connection queue; backpressure is enforced by the broker's
// admission bound, not by socket buffering.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string_view>
#include <thread>
#include <vector>

#include "ftlcoordd/protocol.hpp"
#include "obs/metrics.hpp"
#include "obs/spanctx.hpp"
#include "qnet/live_broker.hpp"

namespace ftl::coordd {

/// Decision-pipeline stages, in request order. Every batch is timed per
/// stage (cumulative + sliding-window histograms), and a request's deadline
/// miss is attributed to the stage whose boundary first saw the budget
/// exhausted.
enum class Stage : std::uint8_t {
  kSocketRead = 0,   ///< blocked in read_frame (wire + socket wait)
  kAdmission = 1,    ///< decode + admission control
  kPairAcquire = 2,  ///< broker decisions (pair acquire or fallback)
  kDecide = 3,       ///< reply packing
  kReplyWrite = 4,   ///< deadline evaluation + frame write to the client
};
inline constexpr std::size_t kNumStages = 5;
[[nodiscard]] const char* stage_name(Stage s) noexcept;

struct DaemonConfig {
  /// Decide protocol port (0 = ephemeral; query via port()).
  std::uint16_t port = 0;
  /// Prometheus /metrics port (0 = ephemeral; query via metrics_port()).
  std::uint16_t metrics_port = 0;
  qnet::LiveBrokerConfig broker;
  std::uint64_t seed = 42;
};

class Daemon {
 public:
  explicit Daemon(const DaemonConfig& cfg);
  ~Daemon();

  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// Binds both ports, sets the clock's origin, and starts the refill and
  /// acceptor threads. False when a port cannot be bound (daemon left
  /// stopped).
  [[nodiscard]] bool start();

  /// Stops acceptors, shuts down live connections, and joins every
  /// thread, the refill thread last. Idempotent.
  void stop();

  [[nodiscard]] bool running() const { return running_.load(); }
  [[nodiscard]] std::uint16_t port() const { return port_; }
  [[nodiscard]] std::uint16_t metrics_port() const { return metrics_port_; }

  [[nodiscard]] qnet::LiveBroker& broker() { return *broker_; }

 private:
  /// Seconds on the serving clock since start().
  [[nodiscard]] double now_s() const;
  /// Every kProducerPeriod, advances every source's pool to now_s().
  void refill_loop();
  void accept_loop();
  void metrics_loop();
  void handle_connection(int fd);
  /// Serves one decide batch (serve_decide at now_s()), then sets the
  /// deadline bits, writes the reply, and records the stage histograms,
  /// deadline counters, latency and, for a traced batch, stage spans.
  /// `t_loop`/`t_read` bracket the socket-read stage. False when the
  /// connection died.
  bool handle_decide(int fd, const DecideRequestV2& req,
                     std::chrono::steady_clock::time_point t_loop,
                     std::chrono::steady_clock::time_point t_read,
                     std::vector<DecisionEntry>& entries,
                     std::vector<qnet::LiveBroker::Decision>& decisions);
  /// Serves one HTTP request on the metrics port: routes /metrics and
  /// /profile, answers errors (400/404/405) for everything else.
  void serve_metrics_once(int fd);
  /// GET /profile: runs the sampling profiler for the requested window
  /// (seconds/hz from the query string, clamped) and writes the folded
  /// stacks. 409 when a session is already armed, 501 under obs-OFF.
  void serve_profile_once(int fd, std::string_view query);
  /// Publishes fresh windowed percentile gauges from every stage window.
  void flush_stage_windows();
  /// Untracks and closes a connection fd (end of its handler).
  void cleanup(int fd);

  /// Registers/unregisters a live connection fd so stop() can unblock it.
  void track_fd(int fd);
  void untrack_fd(int fd);

  DaemonConfig cfg_;
  std::unique_ptr<qnet::LiveBroker> broker_;

  std::atomic<bool> running_{false};
  std::atomic<bool> stopping_{false};
  std::chrono::steady_clock::time_point t0_;  // serving clock origin
  int listen_fd_ = -1;
  int metrics_listen_fd_ = -1;
  std::uint16_t port_ = 0;
  std::uint16_t metrics_port_ = 0;

  std::thread refill_;
  std::thread acceptor_;
  std::thread metrics_acceptor_;
  std::mutex conns_mu_;
  std::vector<std::thread> handlers_;  // guarded by conns_mu_
  std::vector<int> live_fds_;          // guarded by conns_mu_

  // Daemon-side serving metrics.
  obs::Counter& m_connections_;
  obs::Counter& m_frames_;
  obs::Counter& m_malformed_;
  obs::Counter& m_scrapes_;
  obs::Histogram& m_decision_latency_;

  // Per-stage latency: cumulative histograms (full-run distribution) and
  // sliding windows (recent p50/p95/p99/p999 gauges on /metrics), both
  // labeled stage=<name>. Indexed by Stage.
  obs::Histogram* m_stage_us_[kNumStages];
  std::unique_ptr<obs::SlidingHistogram> m_stage_window_[kNumStages];

  // Deadline accounting (requests with a nonzero budget): batches that
  // met the budget through reply write, and misses attributed to the stage
  // that exhausted it.
  obs::Counter& m_deadline_hit_;
  obs::Counter* m_deadline_miss_[kNumStages];

  // On-demand /profile requests served (any status).
  obs::Counter& m_profile_requests_;
};

}  // namespace ftl::coordd
