// Shared helpers for the bench binaries.
//
// Every bench accepts:
//   --seed <n>             reseed the random stream (replay property-test
//                          failures through the full benchmark pipeline)
//   --metrics-out=<path>   write an `ftl.obs.run_report/v1` JSON file with
//                          the metric registry snapshot + run metadata
//   --metrics-every=<ms>   append an `ftl.obs.snapshot/v1` JSON line with a
//                          timestamped registry snapshot every <ms>
//                          milliseconds while the bench runs (written to
//                          `<metrics-out>.series`, or `<bench>.series.jsonl`
//                          when --metrics-out was not given); one line is
//                          always written at start and one at exit
//   --prom-out=<path>      write the final registry snapshot in Prometheus
//                          text exposition format (textfile-collector style)
//   --trace-out=<path>     write a Chrome trace_event JSON file (open in
//                          chrome://tracing or https://ui.perfetto.dev)
//   --profile-out=<path>   run the in-process sampling CPU profiler for the
//                          whole bench and write FlameGraph folded stacks
//                          on exit (flamegraph.pl and speedscope.app both
//                          open them)
//   --profile-hz=<n>       profiler sampling rate (default 99 Hz)
// Flag/value pairing follows util::is_value_token, so a separate
// negative-number value (`--seed -5`) is read as the flag's value while an
// unrelated dash token (`--seed -v`) is not.
#pragma once

#include <chrono>
#include <cstdint>
#include <ctime>
#include <fstream>
#include <iostream>
#include <optional>
#include <string>
#include <utility>

#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "obs/profiler.hpp"
#include "obs/report.hpp"
#include "obs/trace.hpp"
#include "util/args.hpp"

namespace ftl::bench {

struct Options {
  std::uint64_t seed = 0;
  std::string metrics_out;        // empty = no run report
  std::string trace_out;          // empty = no trace
  std::string prom_out;           // empty = no Prometheus export
  std::uint64_t metrics_every_ms = 0;  // 0 = no periodic snapshots
  std::string profile_out;        // empty = no CPU profile
  int profile_hz = 99;
};

/// Reads the common bench flags from the command line. The seed falls back
/// to `fallback_seed` when `--seed` was not passed.
inline Options parse_args(int argc, const char* const* argv,
                          std::uint64_t fallback_seed) {
  const util::Args args(argc, argv);
  Options opts;
  opts.seed = static_cast<std::uint64_t>(
      args.get("seed", static_cast<long long>(fallback_seed)));
  opts.metrics_out = args.get("metrics-out", std::string());
  opts.trace_out = args.get("trace-out", std::string());
  opts.prom_out = args.get("prom-out", std::string());
  opts.metrics_every_ms = static_cast<std::uint64_t>(
      args.get("metrics-every", static_cast<long long>(0)));
  opts.profile_out = args.get("profile-out", std::string());
  opts.profile_hz =
      static_cast<int>(args.get("profile-hz", static_cast<long long>(99)));
  return opts;
}

/// RAII observability session for a bench main(). Construct right after
/// parse_args (starts the tracer and the periodic snapshotter if requested);
/// on destruction writes the run report / Prometheus export / trace files
/// requested on the command line.
class ObsSession {
 public:
  ObsSession(std::string name, Options opts)
      : name_(std::move(name)),
        opts_(std::move(opts)),
        t0_(std::chrono::steady_clock::now()),
        cpu0_(std::clock()) {
    if (!opts_.trace_out.empty()) obs::tracer().start();
    if (!opts_.profile_out.empty()) {
      obs::ProfilerOptions popts;
      popts.hz = opts_.profile_hz;
      profiling_ = obs::profiler().start(popts);
      if (!profiling_) {
        if constexpr (obs::kEnabled) {
          std::cerr << "[obs] profiler failed to start (another profile "
                       "session is already running?)\n";
        } else {
          std::cerr << "[obs] profiler unavailable: built with "
                       "FTL_OBS_ENABLED=OFF, no profile will be written\n";
        }
      }
    }
    if (opts_.metrics_every_ms > 0) {
      snapshotter_.emplace(
          series_path(),
          std::chrono::milliseconds(opts_.metrics_every_ms));
      snapshotter_->start();
    }
  }

  ObsSession(const ObsSession&) = delete;
  ObsSession& operator=(const ObsSession&) = delete;

  /// Free-form config description recorded in the run report's metadata.
  void set_config(std::string config) { config_ = std::move(config); }

  /// Where --metrics-every appends its snapshot lines.
  [[nodiscard]] static std::string series_path_for(const std::string& name,
                                                   const Options& opts) {
    return opts.metrics_out.empty() ? name + ".series.jsonl"
                                    : opts.metrics_out + ".series";
  }
  [[nodiscard]] std::string series_path() const {
    return series_path_for(name_, opts_);
  }

  ~ObsSession() {
    const auto dt = std::chrono::steady_clock::now() - t0_;
    if (profiling_) {
      // Stop sampling before the report/export writers below run so the
      // profile covers the bench itself, not the teardown I/O.
      obs::profiler().stop();
      const std::string body = obs::profiler().folded();
      std::ofstream out(opts_.profile_out, std::ios::trunc);
      if (out && out.write(body.data(),
                           static_cast<std::streamsize>(body.size()))) {
        std::cerr << "[obs] CPU profile (" << obs::profiler().sample_count()
                  << " samples, folded) written to "
                  << opts_.profile_out << "\n";
      } else {
        std::cerr << "[obs] FAILED to write CPU profile to "
                  << opts_.profile_out << "\n";
      }
    }
    if (snapshotter_) {
      snapshotter_->stop();
      std::cerr << "[obs] " << snapshotter_->snapshots_written()
                << " snapshots appended to " << series_path() << "\n";
    }
    if (!opts_.metrics_out.empty()) {
      obs::RunMeta meta;
      meta.name = name_;
      meta.seed = opts_.seed;
      meta.config = config_;
      meta.wall_time_s = std::chrono::duration<double>(dt).count();
      meta.cpu_time_s = static_cast<double>(std::clock() - cpu0_) /
                        static_cast<double>(CLOCKS_PER_SEC);
      if (obs::write_run_report(opts_.metrics_out, obs::registry().snapshot(),
                                meta)) {
        std::cerr << "[obs] run report written to " << opts_.metrics_out
                  << "\n";
      } else {
        std::cerr << "[obs] FAILED to write run report to "
                  << opts_.metrics_out << "\n";
      }
    }
    if (!opts_.prom_out.empty()) {
      if (obs::write_prometheus_text(opts_.prom_out,
                                     obs::registry().snapshot())) {
        std::cerr << "[obs] Prometheus export written to " << opts_.prom_out
                  << "\n";
      } else {
        std::cerr << "[obs] FAILED to write Prometheus export to "
                  << opts_.prom_out << "\n";
      }
    }
    if (!opts_.trace_out.empty()) {
      obs::tracer().stop();
      if (obs::tracer().write(opts_.trace_out)) {
        std::cerr << "[obs] trace written to " << opts_.trace_out << "\n";
      } else {
        std::cerr << "[obs] FAILED to write trace to " << opts_.trace_out
                  << "\n";
      }
    }
  }

 private:
  std::string name_;
  Options opts_;
  std::string config_;
  std::chrono::steady_clock::time_point t0_;
  std::clock_t cpu0_;
  bool profiling_ = false;
  std::optional<obs::PeriodicSnapshotter> snapshotter_;
};

}  // namespace ftl::bench
