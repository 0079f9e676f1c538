#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <mutex>
#include <sstream>
#include <thread>

#include "perfbench.hpp"
#include "util/rng.hpp"

namespace perfbench {

namespace {

std::string fmt_number(double v) {
  // A latency of a failed frame is infinite; JSON has no infinity, and the
  // value only has to read as far over any limit.
  if (!std::isfinite(v)) v = 1e12;
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

void Result::check(bool ok, const std::string& what) {
  if (ok) return;
  correct_ = false;
  std::cout << "CHECK FAILED: " << what << std::endl;
}

void Result::note(const std::string& line) { std::cout << line << std::endl; }

std::string Result::json() const {
  std::ostringstream out;
  out << "{\"correct\": " << (correct_ ? "true" : "false")
      << ", \"attempted\": " << attempted_ << ", \"failed\": " << failed_
      << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, vu] : metrics_) {
    if (!first) out << ", ";
    first = false;
    out << "\"" << name << "\": {\"value\": " << fmt_number(vu.first)
        << ", \"unit\": \"" << vu.second << "\"}";
  }
  out << "}}";
  return out.str();
}

// ---------------------------------------------------------------------------
// Spans: one global append-only buffer behind a mutex. Spans are recorded
// around calls that cost microseconds or more, so the lock is not the
// bottleneck; the cap keeps a long traced run's memory bounded.
// ---------------------------------------------------------------------------

namespace {

std::atomic<bool> g_spans_on{false};
std::atomic<std::uint64_t> g_next_span_id{1};
std::mutex g_spans_mu;
std::vector<Span> g_spans;  // guarded by g_spans_mu
std::size_t g_spans_cap = 0;
std::uint64_t g_spans_dropped = 0;  // guarded by g_spans_mu
thread_local std::vector<std::uint64_t> t_parents;

bool spans_enabled() { return g_spans_on.load(std::memory_order_relaxed); }

}  // namespace

void spans_enable(std::size_t cap) {
  const std::lock_guard<std::mutex> lock(g_spans_mu);
  g_spans_cap = cap;
  g_spans.reserve(std::min<std::size_t>(cap, 1u << 16));
  g_spans_on.store(true);
}

std::size_t spans_recorded() {
  const std::lock_guard<std::mutex> lock(g_spans_mu);
  return g_spans.size();
}

std::uint64_t span_new_id() {
  return spans_enabled() ? g_next_span_id.fetch_add(1) : 0;
}

void span_record(const char* name, std::int64_t start_ns, std::int64_t end_ns,
                 std::uint64_t parent, std::uint64_t trace, std::uint64_t id) {
  if (!spans_enabled()) return;
  if (id == 0) id = g_next_span_id.fetch_add(1);
  const std::lock_guard<std::mutex> lock(g_spans_mu);
  if (g_spans.size() >= g_spans_cap) {
    ++g_spans_dropped;
    return;
  }
  g_spans.push_back(Span{name, start_ns, end_ns, id, parent, trace});
}

bool spans_write(const std::string& path) {
  const std::lock_guard<std::mutex> lock(g_spans_mu);
  std::ofstream out(path, std::ios::trunc);
  if (!out) return false;
  const std::int64_t t0 = g_spans.empty() ? 0 : g_spans.front().start_ns;
  out << "{\"dropped\": " << g_spans_dropped << ", \"traceEvents\": [\n";
  for (std::size_t i = 0; i < g_spans.size(); ++i) {
    const Span& s = g_spans[i];
    out << (i == 0 ? "" : ",\n") << "{\"name\": \"" << s.name
        << "\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": "
        << fmt_number(static_cast<double>(s.start_ns - t0) / 1e3)
        << ", \"dur\": "
        << fmt_number(static_cast<double>(s.end_ns - s.start_ns) / 1e3)
        << ", \"args\": {\"id\": " << s.id << ", \"parent\": " << s.parent
        << ", \"trace\": " << s.trace << "}}";
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

ScopedSpan::ScopedSpan(const char* name, std::uint64_t trace)
    : name_(name), trace_(trace), on_(spans_enabled()) {
  if (!on_) return;
  parent_ = t_parents.empty() ? 0 : t_parents.back();
  id_ = g_next_span_id.fetch_add(1);
  t_parents.push_back(id_);
  start_ = now_ns();
}

ScopedSpan::~ScopedSpan() {
  if (!on_) return;
  const std::int64_t end = now_ns();
  t_parents.pop_back();
  const std::lock_guard<std::mutex> lock(g_spans_mu);
  if (g_spans.size() >= g_spans_cap) {
    ++g_spans_dropped;
    return;
  }
  g_spans.push_back(Span{name_, start_, end, id_, parent_, trace_});
}

// ---------------------------------------------------------------------------
// Statistics and process helpers.
// ---------------------------------------------------------------------------

double quantile(std::vector<double>& v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double median(std::vector<double> v) { return quantile(v, 0.5); }

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (const double x : v) s += x;
  return s / static_cast<double>(v.size());
}

double proc_cpu_ns(int pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
  std::string line;
  std::getline(in, line);
  // Fields after the parenthesised command name; utime and stime are the
  // 14th and 15th fields overall, i.e. the 12th and 13th after ") ".
  const std::size_t close = line.rfind(')');
  if (close == std::string::npos) return 0.0;
  std::istringstream rest(line.substr(close + 2));
  std::string field;
  double utime = 0.0;
  double stime = 0.0;
  for (int i = 1; i <= 13 && rest >> field; ++i) {
    if (i == 12) utime = std::stod(field);
    if (i == 13) stime = std::stod(field);
  }
  return (utime + stime) * 1e9 / static_cast<double>(::sysconf(_SC_CLK_TCK));
}

double proc_peak_rss_mb(int pid) {
  std::ifstream in(pid == 0 ? std::string("/proc/self/status")
                            : "/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MiB
    }
  }
  return 0.0;
}

double self_cpu_ns() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  const auto tv_ns = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) * 1e9 +
           static_cast<double>(tv.tv_usec) * 1e3;
  };
  return tv_ns(ru.ru_utime) + tv_ns(ru.ru_stime);
}

std::size_t worker_count() {
  const unsigned hw = std::thread::hardware_concurrency();
  return std::clamp<std::size_t>(hw == 0 ? 1 : hw, 1, 4);
}

std::uint64_t sub_seed(std::uint64_t seed, std::uint64_t label) {
  std::uint64_t s = seed ^ (0x9e3779b97f4a7c15ULL * (label + 1));
  return ftl::util::splitmix64(s);
}

}  // namespace perfbench
