#include "ftlbench/runner.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <ostream>
#include <sstream>

#include "obs/export.hpp"

namespace ftl::benchtool {

namespace {

namespace fs = std::filesystem;

std::string utc_now() {
  const std::time_t now = std::time(nullptr);
  std::tm tm{};
  gmtime_r(&now, &tm);
  char buf[32];
  std::strftime(buf, sizeof buf, "%Y-%m-%dT%H:%M:%SZ", &tm);
  return buf;
}

/// user+system CPU seconds accrued by waited-for children so far.
double children_cpu_s() {
  rusage ru{};
  if (getrusage(RUSAGE_CHILDREN, &ru) != 0) return 0.0;
  const auto tv_s = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return tv_s(ru.ru_utime) + tv_s(ru.ru_stime);
}

std::string shell_quote(const std::string& s) {
  std::string out = "'";
  for (const char c : s) {
    if (c == '\'')
      out += "'\\''";
    else
      out += c;
  }
  out += "'";
  return out;
}

}  // namespace

std::vector<std::string> discover_benches(const std::string& bench_dir) {
  std::vector<std::string> benches;
  std::error_code ec;
  for (const fs::directory_entry& e : fs::directory_iterator(bench_dir, ec)) {
    if (!e.is_regular_file(ec)) continue;
    const std::string name = e.path().filename().string();
    if (name.rfind("bench_", 0) != 0) continue;
    if (e.path().has_extension()) continue;  // skip .json etc.
    if ((e.status(ec).permissions() & fs::perms::owner_exec) ==
        fs::perms::none)
      continue;
    benches.push_back(name);
  }
  std::sort(benches.begin(), benches.end());
  return benches;
}

RunOutcome run_bench_once(const RunConfig& config, const std::string& bench) {
  RunOutcome outcome;
  outcome.bench = bench;

  const fs::path binary = fs::path(config.bench_dir) / bench;
  std::error_code ec;
  if (!fs::exists(binary, ec)) {
    outcome.error = "no such bench binary: " + binary.string();
    return outcome;
  }

  const fs::path report_path =
      fs::path(config.out_dir) / ("." + bench + ".report.tmp.json");
  const fs::path log_path =
      fs::path(config.out_dir) / ("." + bench + ".log.tmp");

  std::string cmd = shell_quote(binary.string());
  cmd += " --seed " + std::to_string(config.seed);
  cmd += " --metrics-out=" + shell_quote(report_path.string());
  if (config.metrics_every_ms > 0)
    cmd += " --metrics-every=" + std::to_string(config.metrics_every_ms);
  cmd += " >" + shell_quote(log_path.string()) + " 2>&1";

  const double cpu0 = children_cpu_s();
  const auto t0 = std::chrono::steady_clock::now();
  const int rc = std::system(cmd.c_str());
  const double wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  const double cpu_s = children_cpu_s() - cpu0;

  if (rc != 0) {
    outcome.error = bench + " exited with status " + std::to_string(rc) +
                    " (log: " + log_path.string() + ")";
    return outcome;
  }

  std::ifstream in(report_path);
  if (!in) {
    outcome.error = "bench wrote no run report at " + report_path.string();
    return outcome;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  const std::optional<obs::ParsedRunReport> report =
      obs::parse_run_report(buf.str());
  if (!report) {
    outcome.error = "invalid run report at " + report_path.string();
    return outcome;
  }

  TrajectoryEntry& e = outcome.entry;
  e.git_rev = report->git_rev;
  e.utc = utc_now();
  e.seed = config.seed;
  // Prefer the bench's own in-process timings; the driver's measurements
  // (which include fork/exec and dynamic-loading overhead) are the
  // fallback for reports predating those fields.
  e.wall_time_s = report->wall_time_s > 0.0 ? report->wall_time_s : wall_s;
  e.cpu_time_s = report->cpu_time_s > 0.0 ? report->cpu_time_s : cpu_s;
  e.counters = collapse_counters(report->metrics);
  outcome.ok = true;

  if (!config.verbose) {
    fs::remove(report_path, ec);
    fs::remove(log_path, ec);
  }
  return outcome;
}

int run_all(const RunConfig& config, std::ostream& log) {
  std::vector<std::string> benches = config.benches;
  if (benches.empty()) benches = discover_benches(config.bench_dir);
  if (benches.empty()) {
    log << "ftlbench: no bench_* binaries found in " << config.bench_dir
        << "\n";
    return 1;
  }

  std::error_code ec;
  fs::create_directories(config.out_dir, ec);

  int failures = 0;
  for (const std::string& bench : benches) {
    for (std::size_t rep = 0; rep < config.repetitions; ++rep) {
      const RunOutcome outcome = run_bench_once(config, bench);
      if (!outcome.ok) {
        log << "FAIL " << bench << ": " << outcome.error << "\n";
        ++failures;
        continue;
      }
      const fs::path traj =
          fs::path(config.out_dir) / trajectory_filename(bench);
      if (!append_entry(traj.string(), bench, outcome.entry)) {
        log << "FAIL " << bench << ": could not append to " << traj.string()
            << " (corrupt trajectory or wrong bench name?)\n";
        ++failures;
        continue;
      }
      log << "ok   " << bench << " rep " << (rep + 1) << "/"
          << config.repetitions << "  wall " << outcome.entry.wall_time_s
          << "s  cpu " << outcome.entry.cpu_time_s << "s  -> "
          << traj.string() << "\n";
    }
  }
  return failures;
}

}  // namespace ftl::benchtool
