// Pieces of the coordd workloads the traced ledger reuses: the workload
// shapes, the daemon child process, a connected session, and /metrics
// scraping.
#pragma once

#include <sys/types.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "client.hpp"
#include "perfbench.hpp"

namespace perfbench {

struct CoorddShape {
  std::string name;
  std::size_t batch = 8;
  double pair_rate_hz = 1e5;
  double fiber_km = 0.5;
  std::size_t sources = 2;
  /// Fixed offered rate, decisions/s over all connections.
  double offered_rate_hz = 3e5;
};

/// coordd_small: 8 decisions/frame, default physics (1e5 pairs/s, 0.5 km),
/// offered 300k decisions/s.
/// coordd_large: 512 decisions/frame, 2e6 pairs/s over 0 km of fiber,
/// offered 2M decisions/s (about half its measured ladder capacity).
[[nodiscard]] CoorddShape coordd_shape(bool large);

/// The ftlcoordd binary as a child process on ephemeral loopback ports.
class DaemonProcess {
 public:
  DaemonProcess() = default;
  ~DaemonProcess();
  DaemonProcess(const DaemonProcess&) = delete;
  DaemonProcess& operator=(const DaemonProcess&) = delete;

  /// Spawns the daemon and waits for its port line (10 s at most).
  [[nodiscard]] bool start(const std::string& path, const CoorddShape& shape,
                           std::uint64_t seed);
  /// SIGTERM, drain stdout, reap; returns the exit status (-1 if not
  /// running).
  int stop();
  [[nodiscard]] pid_t pid() const { return pid_; }

  std::uint16_t port = 0;
  std::uint16_t metrics_port = 0;

 private:
  pid_t pid_ = -1;
  int out_fd_ = -1;
};

/// A running daemon plus the client's decide connections and one extra
/// connection for kStats frames.
struct CoorddSession {
  CoorddShape shape;
  DaemonProcess daemon;
  std::vector<int> decide_fds;
  std::vector<int> stats_fds;

  [[nodiscard]] bool open(const Options& opt, const CoorddShape& shape);
  void close();
  /// One open-loop phase at `rate_hz` decisions/s split evenly over the
  /// decide connections, one client thread each.
  [[nodiscard]] PhaseStats run(double rate_hz, double seconds,
                               const std::vector<std::uint8_t>& inputs,
                               std::size_t input_offset);
};

/// Prometheus text samples keyed by `name{labels}`.
using PromSamples = std::map<std::string, double>;

/// GET /metrics; `ms` receives the request's wall time.
[[nodiscard]] std::optional<PromSamples> scrape_metrics(std::uint16_t port,
                                                        double* ms = nullptr);
[[nodiscard]] double prom_delta(const PromSamples& a, const PromSamples& b,
                                const std::string& key);

/// Scrapes /metrics and sends a kStats frame every 250 ms from its own
/// thread (asleep between reads), recording scrape times and any kStats
/// reply that breaks the conservation identities. Read the results only
/// after stop().
class Scraper {
 public:
  Scraper(std::uint16_t metrics_port, int stats_fd);
  ~Scraper() { stop(); }
  Scraper(const Scraper&) = delete;
  Scraper& operator=(const Scraper&) = delete;

  void stop();

  std::vector<double> scrape_ms;
  std::size_t scrape_failures = 0;
  std::size_t stats_frames = 0;
  std::size_t stats_violations = 0;

 private:
  void loop();

  std::uint16_t port_;
  int fd_;
  std::atomic<bool> stop_{false};
  std::thread thread_;  // last: started after the members it reads
};

/// The coordd workloads' seeded input bits (one per decision, cycled).
[[nodiscard]] std::vector<std::uint8_t> workload_inputs(std::uint64_t seed);

}  // namespace perfbench
