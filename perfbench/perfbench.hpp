// Shared pieces of the repository benchmark: run options, the result
// record printed as the final JSON line, the in-memory span recorder used
// by traced runs, and small statistics / process helpers.
//
// The benchmark never instruments the program itself: every span wraps one
// of the benchmark's own calls into a public function of a module
// (ftlcoordd.net, qnet.live_broker, lb, games, ...), and every per-layer
// number comes either from timing such calls or from the daemon's public
// /metrics and kStats interfaces.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Path of the ftlcoordd binary (coordd workloads and the traced ledger).
  std::string daemon;
  /// Where a traced run writes its span file.
  std::string spans_out;
};

/// One run's output: metric name -> (value, unit), correctness verdict and
/// the attempted/failed operation counts of the contract's JSON line.
class Result {
 public:
  void metric(const std::string& name, double value, const std::string& unit) {
    metrics_[name] = {value, unit};
  }
  /// Records a correctness check; a false `ok` makes the run incorrect and
  /// prints `what` so the failure is diagnosable.
  void check(bool ok, const std::string& what);
  void count(std::uint64_t attempted, std::uint64_t failed) {
    attempted_ += attempted;
    failed_ += failed;
  }
  /// Takes over another result's verdict and counts (not its metrics).
  void absorb(const Result& o) {
    correct_ = correct_ && o.correct_;
    count(o.attempted_, o.failed_);
  }
  /// Human-readable line (stdout, before the JSON line): aliases, sample
  /// counts and the failed fraction that the JSON metrics do not carry.
  void note(const std::string& line);

  [[nodiscard]] bool correct() const { return correct_; }
  [[nodiscard]] bool has(const std::string& name) const {
    return metrics_.count(name) != 0;
  }
  [[nodiscard]] double value(const std::string& name) const {
    return metrics_.at(name).first;
  }

  /// The contract's final line: {"correct", "attempted", "failed",
  /// "metrics": {name: {"value", "unit"}}}.
  [[nodiscard]] std::string json() const;

 private:
  std::map<std::string, std::pair<double, std::string>> metrics_;
  bool correct_ = true;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

// ---------------------------------------------------------------------------
// Spans. Disabled (every call a no-op) unless the run is traced; a traced
// run keeps spans in memory and writes them once, at exit.
// ---------------------------------------------------------------------------

struct Span {
  const char* name;
  std::int64_t start_ns;
  std::int64_t end_ns;
  std::uint64_t id;
  std::uint64_t parent;  ///< 0 = root
  std::uint64_t trace;   ///< shared by the spans of one request / job
};

void spans_enable(std::size_t cap);
[[nodiscard]] std::size_t spans_recorded();
/// A fresh span id (0 when disabled), for parents recorded after children.
[[nodiscard]] std::uint64_t span_new_id();
/// Records a finished span under `id` (a fresh one when 0).
void span_record(const char* name, std::int64_t start_ns, std::int64_t end_ns,
                 std::uint64_t parent, std::uint64_t trace,
                 std::uint64_t id = 0);
/// Writes every recorded span as a Chrome trace-event JSON array.
[[nodiscard]] bool spans_write(const std::string& path);

/// RAII span around one call; nests through a thread-local parent stack.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name, std::uint64_t trace = 0);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  const char* name_;
  std::uint64_t trace_;
  std::uint64_t id_ = 0;
  std::uint64_t parent_ = 0;
  std::int64_t start_ = 0;
  bool on_ = false;
};

// ---------------------------------------------------------------------------
// Statistics and process helpers.
// ---------------------------------------------------------------------------

/// Linear-interpolated quantile of `v` (sorted in place); 0 when empty.
[[nodiscard]] double quantile(std::vector<double>& v, double q);
[[nodiscard]] double median(std::vector<double> v);
[[nodiscard]] double mean(const std::vector<double>& v);

/// utime + stime of `pid` in nanoseconds (from /proc/<pid>/stat).
[[nodiscard]] double proc_cpu_ns(int pid);
/// VmHWM of `pid` in MiB (from /proc/<pid>/status); pid 0 = this process.
[[nodiscard]] double proc_peak_rss_mb(int pid);
/// CPU time of this process (all threads), nanoseconds.
[[nodiscard]] double self_cpu_ns();
/// Worker count for the benchmark's thread pools: min(nproc, 4).
[[nodiscard]] std::size_t worker_count();

/// Deterministic 64-bit sub-seed for (seed, label).
[[nodiscard]] std::uint64_t sub_seed(std::uint64_t seed, std::uint64_t label);

// ---------------------------------------------------------------------------
// Workloads and the traced per-layer ledger.
// ---------------------------------------------------------------------------

void run_coordd_large(const Options& opt, Result& out);
void run_fig4(const Options& opt, Result& out);
void run_xor(const Options& opt, Result& out);

/// Per-layer ledger of a traced run (every per-layer metric, whichever
/// workload was named): daemon, net and broker layers from short traced
/// daemon runs of both coordd configurations, replays for protocol, obs,
/// lb, correlate and sim, and timed value-layer calls for games and sdp.
void run_ledger(const Options& opt, Result& out);

/// Self-test of the open-loop latency accounting against an in-process fake
/// server with one injected stall.
void latency_self_test(Result& out);

}  // namespace perfbench
