// ftlcoordd entry point: parse flags, start the daemon, run until a signal
// (or --duration elapses), then write the run report and exit. A flag
// value out of its range prints the usage line and exits 2.
#include <cmath>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <ctime>

#include <atomic>
#include <chrono>
#include <iostream>
#include <optional>
#include <string>
#include <thread>

#include "ftlcoordd/daemon.hpp"
#include "obs/export.hpp"
#include "obs/report.hpp"
#include "obs/trace.hpp"
#include "qnet/pair_pool.hpp"
#include "util/args.hpp"

namespace {

std::atomic<bool> g_shutdown{false};

void handle_signal(int) { g_shutdown.store(true); }

void print_usage(const char* prog) {
  std::fprintf(stderr,
               "usage: %s [flags]\n"
               "  --port N               decide port (default 7400; 0 = ephemeral)\n"
               "  --metrics-port N       Prometheus /metrics port (default 7401; 0 = ephemeral);\n"
               "                         also serves GET /profile?seconds=N&hz=H — an on-demand\n"
               "                         CPU profile as FlameGraph folded stacks\n"
               "  --sources N            independent pair sources (default 1)\n"
               "  --slots N              QNIC slots per source (default 8)\n"
               "  --max-pending N        admission bound on in-flight decisions (default 65536)\n"
               "  --pair-rate HZ         source pair rate, pairs/s (default 1e5)\n"
               "  --fiber-km KM          one-way fiber length (default 0.5)\n"
               "  --visibility V         fresh-pair visibility (default 0.98)\n"
               "  --t1-us US             memory T1 (default 500)\n"
               "  --t2-us US             memory T2 (default 100)\n"
               "  --max-storage-us US    storage cutoff (default 200)\n"
               "  --seed N               RNG seed (default 42)\n"
               "  --duration S           seconds to serve; 0 = until SIGINT/SIGTERM\n"
               "  --metrics-out PATH     write an ftl.obs.run_report/v1 JSON on exit\n"
               "  --snapshot-out PATH    append ftl.obs.snapshot/v1 JSONL while serving\n"
               "  --snapshot-every-ms MS snapshot cadence (default 1000; needs --snapshot-out)\n"
               "  --trace-out PATH       write a Chrome/Perfetto trace JSON on exit;\n"
               "                         stage spans for every frame the client traced\n"
               "Ports are 0-65535; sources, slots and max-pending at least 1; the pair\n"
               "rate, T1 and T2 positive with T2 <= 2*T1; fiber km at least 0; and the\n"
               "visibility must leave a quantum advantage. Anything else exits 2.\n",
               prog);
}

/// True when every value is in the range the daemon can serve with: the
/// library asserts on the rest, or silently serves something else.
bool valid_config(long long port, long long metrics_port,
                  const ftl::coordd::DaemonConfig& cfg) {
  const auto in_port_range = [](long long p) { return p >= 0 && p <= 65535; };
  const ftl::qnet::QnetConfig& q = cfg.broker.qnet;
  for (const double v : {q.pair_rate_hz, q.fiber_km, q.source_visibility,
                         q.memory_t1_s, q.memory_t2_s, q.max_storage_s}) {
    if (!std::isfinite(v)) return false;
  }
  return in_port_range(port) && in_port_range(metrics_port) &&
         cfg.broker.sources >= 1 && q.memory_slots >= 1 &&
         cfg.broker.max_pending >= 1 && q.pair_rate_hz > 0.0 &&
         q.fiber_km >= 0.0 && q.memory_t1_s > 0.0 && q.memory_t2_s > 0.0 &&
         q.memory_t2_s <= 2.0 * q.memory_t1_s && q.source_visibility >= 0.0 &&
         q.source_visibility <= 1.0 &&
         ftl::qnet::storage_limit_s(q, q.source_visibility) > 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  const ftl::util::Args args(argc, argv);
  if (args.has("help")) {
    print_usage(args.program().c_str());
    return 0;
  }

  ftl::coordd::DaemonConfig cfg;
  const long long port = args.get("port", 7400LL);
  const long long metrics_port = args.get("metrics-port", 7401LL);
  cfg.seed = static_cast<std::uint64_t>(args.get("seed", 42LL));
  cfg.broker.sources = args.get("sources", std::size_t{1});
  cfg.broker.qnet.memory_slots =
      args.get("slots", cfg.broker.qnet.memory_slots);
  cfg.broker.max_pending = args.get("max-pending", std::size_t{1} << 16);
  cfg.broker.qnet.pair_rate_hz = args.get("pair-rate", 1.0e5);
  cfg.broker.qnet.fiber_km = args.get("fiber-km", 0.5);
  cfg.broker.qnet.source_visibility = args.get("visibility", 0.98);
  cfg.broker.qnet.memory_t1_s = args.get("t1-us", 500.0) * 1e-6;
  cfg.broker.qnet.memory_t2_s = args.get("t2-us", 100.0) * 1e-6;
  cfg.broker.qnet.max_storage_s = args.get("max-storage-us", 200.0) * 1e-6;
  if (!valid_config(port, metrics_port, cfg)) {
    print_usage(args.program().c_str());
    return 2;
  }
  cfg.port = static_cast<std::uint16_t>(port);
  cfg.metrics_port = static_cast<std::uint16_t>(metrics_port);
  const double duration_s = args.get("duration", 0.0);
  const std::string trace_out = args.get("trace-out", std::string());
  if (!trace_out.empty()) ftl::obs::tracer().start();

  ftl::coordd::Daemon daemon(cfg);
  if (!daemon.start()) {
    std::cerr << "ftlcoordd: failed to bind port " << cfg.port << " or "
              << cfg.metrics_port << "\n";
    return 1;
  }
  std::signal(SIGINT, handle_signal);
  std::signal(SIGTERM, handle_signal);
  std::cout << "ftlcoordd: serving decide on 127.0.0.1:"
            << daemon.port() << ", /metrics on 127.0.0.1:"
            << daemon.metrics_port() << " (" << cfg.broker.sources
            << " sources, pair rate " << cfg.broker.qnet.pair_rate_hz
            << " Hz, storage window " << daemon.broker().max_storage_s() * 1e6
            << " us)" << std::endl;

  std::optional<ftl::obs::PeriodicSnapshotter> snapshotter;
  const std::string snapshot_out = args.get("snapshot-out", std::string());
  if (!snapshot_out.empty()) {
    snapshotter.emplace(
        snapshot_out,
        std::chrono::milliseconds(args.get("snapshot-every-ms", 1000LL)));
    snapshotter->start();
  }

  const auto t0 = std::chrono::steady_clock::now();
  const std::clock_t cpu0 = std::clock();
  while (!g_shutdown.load()) {
    if (duration_s > 0.0 &&
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
                .count() >= duration_s) {
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }

  daemon.stop();
  if (snapshotter) snapshotter->stop();

  if (!trace_out.empty()) {
    ftl::obs::tracer().stop();
    if (!ftl::obs::tracer().write(trace_out)) {
      std::cerr << "ftlcoordd: FAILED to write trace to " << trace_out << "\n";
      return 1;
    }
    std::cout << "ftlcoordd: wrote " << ftl::obs::tracer().size()
              << " trace events to " << trace_out << std::endl;
  }

  const std::string metrics_out = args.get("metrics-out", std::string());
  if (!metrics_out.empty()) {
    ftl::obs::RunMeta meta;
    meta.name = "ftlcoordd";
    meta.seed = cfg.seed;
    meta.config = "sources=" + std::to_string(cfg.broker.sources) +
                  " pair_rate_hz=" +
                  std::to_string(cfg.broker.qnet.pair_rate_hz);
    meta.wall_time_s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    meta.cpu_time_s = static_cast<double>(std::clock() - cpu0) /
                      static_cast<double>(CLOCKS_PER_SEC);
    if (!ftl::obs::write_run_report(metrics_out,
                                    ftl::obs::registry().snapshot(), meta)) {
      std::cerr << "ftlcoordd: FAILED to write run report to " << metrics_out
                << "\n";
      return 1;
    }
  }

  const auto s = daemon.broker().stats();
  std::cout << "ftlcoordd: served " << s.requests << " decisions ("
            << s.hits << " quantum, " << s.fallbacks << " classical, "
            << s.rejected << " rejected); pairs generated "
            << s.pairs_generated << ", delivered " << s.pairs_delivered
            << ", expired " << s.pairs_expired << std::endl;
  return 0;
}
