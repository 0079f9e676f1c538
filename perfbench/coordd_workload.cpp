// The coordd workloads: the real ftlcoordd binary as a child process on
// loopback, driven by the benchmark's open-loop client (client.hpp).
//
// A coordd_large run: latency self-test; set-up timed seven times (spawn ->
// port line -> connections up, median reported); a short warm-up; the
// fixed-rate phase (latency, daemon CPU per decision, win fraction); then
// the rate ladder (capacity). Throughout, a /metrics scrape and a kStats
// frame run at a fixed cadence on their own connections. The coordd_small
// shape (8 decisions per frame) is measured by the traced ledger only.
#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <map>
#include <sstream>
#include <thread>

#include "client.hpp"
#include "coordd_workload.hpp"
#include "ftlcoordd/net.hpp"
#include "perfbench.hpp"
#include "util/rng.hpp"

namespace perfbench {

namespace coordd = ftl::coordd;

namespace {

constexpr double kLatencyLimitUs = 1000.0;  // p99 per frame
constexpr std::size_t kConnections = 2;
constexpr std::size_t kSetupRepeats = 7;

/// Bounds every blocking read on a client socket, so a daemon that stops
/// answering fails the run instead of hanging it.
void set_recv_timeout(int fd) {
  const timeval tv{5, 0};
  (void)::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
}

std::string fmt(double v, int prec = 4) {
  std::ostringstream s;
  s.precision(prec);
  s << v;
  return s.str();
}

}  // namespace

CoorddShape coordd_shape(bool large) {
  CoorddShape s;
  s.name = large ? "coordd_large" : "coordd_small";
  s.batch = large ? 512 : 8;
  s.pair_rate_hz = large ? 2e6 : 1e5;
  s.fiber_km = large ? 0.0 : 0.5;
  s.sources = 2;
  s.offered_rate_hz = large ? 2e6 : 3e5;
  return s;
}

// ---------------------------------------------------------------------------
// Daemon child process.
// ---------------------------------------------------------------------------

DaemonProcess::~DaemonProcess() { (void)stop(); }

bool DaemonProcess::start(const std::string& path, const CoorddShape& shape,
                          std::uint64_t seed) {
  int pipefd[2];
  if (::pipe2(pipefd, O_CLOEXEC) != 0) return false;
  const std::vector<std::string> args = {
      path,           "--port",      "0",
      "--metrics-port", "0",         "--sources",
      std::to_string(shape.sources), "--pair-rate",
      fmt(shape.pair_rate_hz, 17),   "--fiber-km",
      fmt(shape.fiber_km, 17),       "--seed",
      std::to_string(seed)};
  std::vector<char*> argv;
  for (const std::string& a : args) argv.push_back(const_cast<char*>(a.c_str()));
  argv.push_back(nullptr);
  const pid_t pid = ::fork();
  if (pid < 0) {
    ::close(pipefd[0]);
    ::close(pipefd[1]);
    return false;
  }
  if (pid == 0) {
    // Child: the daemon must never outlive the benchmark.
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    ::dup2(pipefd[1], STDOUT_FILENO);
    ::execv(argv[0], argv.data());
    ::_exit(127);
  }
  ::close(pipefd[1]);
  pid_ = pid;
  out_fd_ = pipefd[0];

  // Read stdout until the "serving ... 127.0.0.1:<port>, /metrics on
  // 127.0.0.1:<port>" line.
  std::string text;
  const std::int64_t deadline = now_ns() + 10'000'000'000LL;
  while (now_ns() < deadline) {
    pollfd pfd{out_fd_, POLLIN, 0};
    if (::poll(&pfd, 1, 100) <= 0) continue;
    char buf[512];
    const ssize_t got = ::read(out_fd_, buf, sizeof buf);
    if (got <= 0) break;
    text.append(buf, static_cast<std::size_t>(got));
    const std::size_t line_end = text.find('\n');
    if (line_end == std::string::npos) continue;
    unsigned p1 = 0;
    unsigned p2 = 0;
    const std::size_t at = text.find("127.0.0.1:");
    const std::size_t at2 = text.find("127.0.0.1:", at + 1);
    if (at != std::string::npos && at2 != std::string::npos &&
        std::sscanf(text.c_str() + at, "127.0.0.1:%u", &p1) == 1 &&
        std::sscanf(text.c_str() + at2, "127.0.0.1:%u", &p2) == 1) {
      port = static_cast<std::uint16_t>(p1);
      metrics_port = static_cast<std::uint16_t>(p2);
      return true;
    }
    break;
  }
  (void)stop();
  return false;
}

int DaemonProcess::stop() {
  if (pid_ <= 0) return -1;
  ::kill(pid_, SIGTERM);
  // Drain stdout (its exit summary) so the daemon never blocks on a full
  // pipe; escalate to SIGKILL if it does not exit in time.
  const std::int64_t deadline = now_ns() + 10'000'000'000LL;
  char buf[512];
  while (out_fd_ >= 0) {
    pollfd pfd{out_fd_, POLLIN, 0};
    if (::poll(&pfd, 1, 100) > 0 && ::read(out_fd_, buf, sizeof buf) <= 0) break;
    if (now_ns() > deadline) {
      ::kill(pid_, SIGKILL);
      break;
    }
  }
  int status = 0;
  ::waitpid(pid_, &status, 0);
  if (out_fd_ >= 0) ::close(out_fd_);
  out_fd_ = -1;
  pid_ = -1;
  return WIFEXITED(status) ? WEXITSTATUS(status) : 128 + WTERMSIG(status);
}

// ---------------------------------------------------------------------------
// /metrics scraping.
// ---------------------------------------------------------------------------

std::optional<PromSamples> scrape_metrics(std::uint16_t port, double* ms) {
  const ScopedSpan span("obs.metrics_scrape");
  const std::int64_t t0 = now_ns();
  const int fd = coordd::connect_tcp("127.0.0.1", port);
  if (fd < 0) return std::nullopt;
  set_recv_timeout(fd);
  const std::string req = "GET /metrics HTTP/1.0\r\n\r\n";
  std::string body;
  if (coordd::write_full(fd, req.data(), req.size())) {
    char buf[16384];
    ssize_t got;
    while ((got = ::read(fd, buf, sizeof buf)) > 0) {
      body.append(buf, static_cast<std::size_t>(got));
    }
  }
  coordd::close_fd(fd);
  if (ms != nullptr) *ms = static_cast<double>(now_ns() - t0) / 1e6;
  if (body.rfind("HTTP/1.0 200", 0) != 0) return std::nullopt;
  PromSamples out;
  std::istringstream in(body.substr(body.find("\r\n\r\n") + 4));
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    const std::size_t sp = line.rfind(' ');
    if (sp == std::string::npos) continue;
    out[line.substr(0, sp)] = std::strtod(line.c_str() + sp + 1, nullptr);
  }
  return out;
}

double prom_delta(const PromSamples& a, const PromSamples& b,
                  const std::string& key) {
  const auto ia = a.find(key);
  const auto ib = b.find(key);
  return (ib == b.end() ? 0.0 : ib->second) - (ia == a.end() ? 0.0 : ia->second);
}

// ---------------------------------------------------------------------------
// A connected daemon: the child process plus the client's connections.
// ---------------------------------------------------------------------------

bool CoorddSession::open(const Options& opt, const CoorddShape& shape_in) {
  shape = shape_in;
  // The daemon parses --seed as a signed 64-bit integer.
  if (!daemon.start(opt.daemon, shape, sub_seed(opt.seed, 1) >> 1)) return false;
  for (std::size_t c = 0; c < kConnections + 1; ++c) {
    const int fd = coordd::connect_tcp("127.0.0.1", daemon.port);
    if (fd < 0) return false;
    set_recv_timeout(fd);
    (c < kConnections ? decide_fds : stats_fds).push_back(fd);
  }
  return true;
}

void CoorddSession::close() {
  for (const int fd : decide_fds) coordd::close_fd(fd);
  for (const int fd : stats_fds) coordd::close_fd(fd);
  decide_fds.clear();
  stats_fds.clear();
}

PhaseStats CoorddSession::run(double rate_hz, double seconds,
                              const std::vector<std::uint8_t>& inputs,
                              std::size_t input_offset) {
  const std::size_t n = decide_fds.size();
  std::vector<PhaseStats> per(n);
  std::vector<std::thread> threads;
  const std::int64_t start = now_ns() + 2'000'000;
  const double per_conn = rate_hz / static_cast<double>(n);
  const double interval_ns = static_cast<double>(shape.batch) * 1e9 / per_conn;
  for (std::size_t c = 0; c < n; ++c) {
    PhaseConfig cfg;
    cfg.source = static_cast<std::uint32_t>(c % shape.sources);
    cfg.batch = shape.batch;
    cfg.rate_hz = per_conn;
    // Connections interleave their schedules rather than sending in step.
    cfg.start_ns = start + static_cast<std::int64_t>(
                               interval_ns * static_cast<double>(c) /
                               static_cast<double>(n));
    cfg.duration_ns = static_cast<std::int64_t>(seconds * 1e9);
    cfg.inputs = &inputs;
    cfg.input_offset = input_offset + c * 7919;
    threads.emplace_back(
        [&per, c, cfg, fd = decide_fds[c]] { per[c] = run_phase(fd, cfg); });
  }
  for (std::thread& t : threads) t.join();
  PhaseStats all;
  for (const PhaseStats& p : per) all.merge(p);
  return all;
}

Scraper::Scraper(std::uint16_t metrics_port, int stats_fd)
    : port_(metrics_port), fd_(stats_fd) {
  thread_ = std::thread([this] { loop(); });
}

void Scraper::stop() {
  stop_.store(true);
  if (thread_.joinable()) thread_.join();
}

void Scraper::loop() {
  constexpr std::chrono::milliseconds kPeriod(250);
  auto next = Clock::now() + kPeriod;
  while (!stop_.load()) {
    std::this_thread::sleep_until(
        std::min(next, Clock::now() + std::chrono::milliseconds(10)));
    if (Clock::now() < next) continue;
    next += kPeriod;
    double ms = 0.0;
    if (scrape_metrics(port_, &ms)) {
      scrape_ms.push_back(ms);
    } else {
      ++scrape_failures;
    }
    const auto s = fetch_stats(fd_);
    ++stats_frames;
    if (!s || !stats_conserved(*s)) ++stats_violations;
  }
}

std::vector<std::uint8_t> workload_inputs(std::uint64_t seed) {
  ftl::util::Rng rng(sub_seed(seed, 2));
  std::vector<std::uint8_t> inputs(1u << 16);
  for (auto& b : inputs) b = rng.bernoulli(0.5) ? 1 : 0;
  return inputs;
}

namespace {

/// A ladder step passes when every frame was answered, the p99 due-time
/// latency meets the limit, and the generator kept up (lag p99 within the
/// limit, i.e. no growing send backlog); both p99s are medians over the
/// step's windows. Appends the step's verdict and p99s to `log`.
bool step_passes(const PhaseStats& st, double rate, double secs,
                 std::ostringstream& log) {
  constexpr std::size_t kStepWindows = 5;
  const double lat = windowed_quantile(st, st.latency_us, 0.99, kStepWindows, secs);
  const double lag = windowed_quantile(st, st.lag_us, 0.99, kStepWindows, secs);
  const bool pass = !st.connection_lost && st.failed_frames() == 0 &&
                    lat <= kLatencyLimitUs && lag <= kLatencyLimitUs;
  log << " " << fmt(rate / 1e3) << "k:" << (pass ? "ok" : "fail") << "("
      << fmt(lat, 3) << "/" << fmt(lag, 3) << "/" << st.failed_frames() << ")";
  return pass;
}

}  // namespace

void run_coordd_large(const Options& opt, Result& out) {
  const CoorddShape shape = coordd_shape(true);
  const double fixed_rate = shape.offered_rate_hz;
  latency_self_test(out);

  const std::vector<std::uint8_t> inputs = workload_inputs(opt.seed);

  // Set-up, timed kSetupRepeats times; the last session is kept.
  std::vector<double> setup_s;
  CoorddSession session;
  for (std::size_t i = 0; i < kSetupRepeats; ++i) {
    if (i > 0) {
      session.close();
      out.check(session.daemon.stop() == 0, "coordd: daemon exited uncleanly");
    }
    const std::int64_t t0 = now_ns();
    const bool ok = session.open(opt, shape);
    setup_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
    out.check(ok, "coordd: could not start and connect to " + opt.daemon);
    if (!ok) return;
  }
  const int stats_fd = session.stats_fds.front();
  const auto metrics0 = scrape_metrics(session.daemon.metrics_port);
  const auto stats0 = fetch_stats(stats_fd);

  Scraper scraper(session.daemon.metrics_port, stats_fd);

  PhaseStats all;  // every phase, for the exact server-side cross-checks
  const PhaseStats warm = session.run(fixed_rate, 0.05 * opt.seconds, inputs, 0);
  all.merge(warm);

  // Fixed offered rate.
  const double fixed_s = 0.5 * opt.seconds;
  const double cpu0 = proc_cpu_ns(session.daemon.pid());
  const PhaseStats fixed = session.run(fixed_rate, fixed_s, inputs, 1u << 12);
  const double cpu1 = proc_cpu_ns(session.daemon.pid());
  all.merge(fixed);

  // Rate ladder. Machine noise only ever adds latency, so a step can fail
  // spuriously but never pass spuriously: the capacity is the highest rate
  // that met the limit in either of two attempts. x1.25 steps climb from
  // 1.25x the offered rate until two rates in a row fail (stepping down
  // instead while nothing has passed); x1.05 steps then try every rate in
  // the gap above the highest passing one.
  const std::int64_t ladder_end =
      now_ns() + static_cast<std::int64_t>(0.45 * opt.seconds * 1e9);
  constexpr double step_s = 0.5;
  double best = 0.0;
  std::size_t steps = 0;
  std::ostringstream ladder;
  const auto try_rate = [&](double rate) {
    const PhaseStats st = session.run(rate, step_s, inputs, steps * 977);
    ++steps;
    out.check(!st.connection_lost && st.bad_entries == 0 && st.malformed == 0,
              "coordd: ladder step lost its connection or got a bad reply");
    all.merge(st);
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    return step_passes(st, rate, step_s, ladder);
  };
  const auto passes = [&](double rate) { return try_rate(rate) || try_rate(rate); };
  int fails_in_row = 0;
  for (double rate = 1.25 * fixed_rate; now_ns() < ladder_end && fails_in_row < 2 &&
                                        rate > fixed_rate / 16.0;) {
    if (passes(rate)) {
      best = std::max(best, rate);
      fails_in_row = 0;
      rate *= 1.25;
    } else if (best > 0.0) {
      ++fails_in_row;
      rate *= 1.25;
    } else {
      rate /= 1.25;
    }
  }
  const double coarse_best = best;
  for (int k = 1; k <= 4 && coarse_best > 0.0 && now_ns() < ladder_end; ++k) {
    const double rate = coarse_best * std::pow(1.05, k);
    if (passes(rate)) best = std::max(best, rate);
  }
  scraper.stop();

  const auto stats1 = fetch_stats(stats_fd);
  const auto metrics1 = scrape_metrics(session.daemon.metrics_port);
  const double rss = proc_peak_rss_mb(session.daemon.pid());
  session.close();
  out.check(session.daemon.stop() == 0, "coordd: daemon exited uncleanly");

  // Correctness.
  out.check(all.bad_entries == 0, "coordd: " + std::to_string(all.bad_entries) +
                                      " decide entries inconsistent with their inputs");
  out.check(all.malformed == 0 && !all.connection_lost,
            "coordd: a malformed reply or a lost connection");
  // Every frame the client sent reached the daemon: its frame counter moved
  // by the decide frames plus the kStats frames (stats0, stats1, cadence).
  const std::uint64_t stats_frames = 2 + scraper.stats_frames;
  out.check(metrics0 && metrics1 &&
                prom_delta(*metrics0, *metrics1, "ftl_qnet_live_frames_total") ==
                    static_cast<double>(all.frames_sent + stats_frames),
            "coordd: daemon frame count differs from the client's " +
                std::to_string(all.frames_sent) + " decide + " +
                std::to_string(stats_frames) + " kStats frames");
  out.check(stats0 && stats1 && stats_conserved(*stats0) && stats_conserved(*stats1),
            "coordd: kStats conservation identities violated");
  if (stats0 && stats1) {
    out.check(stats1->requests - stats0->requests == all.decisions_ok,
              "coordd: daemon served " +
                  std::to_string(stats1->requests - stats0->requests) +
                  " decisions, client got " + std::to_string(all.decisions_ok));
    out.check(stats1->rejected - stats0->rejected == all.decisions_rejected,
              "coordd: daemon rejected count differs from the client's");
  }
  out.check(scraper.stats_violations == 0 && scraper.scrape_failures == 0,
            "coordd: a cadence kStats/metrics read failed or broke conservation");

  // Only the warm-up and fixed-rate frames count as attempted operations:
  // ladder steps above capacity fail by design.
  const std::uint64_t attempted = warm.frames_due + fixed.frames_due;
  const std::uint64_t failed = warm.failed_frames() + fixed.failed_frames();
  out.count(attempted, failed);

  // Latency: p50 over the phase, p99 as the median over half-second
  // windows so one scheduling hiccup does not decide the run.
  std::vector<double> lat = fixed.latency_us;
  const double p50 = quantile(lat, 0.5);
  const std::size_t windows =
      std::max<std::size_t>(1, static_cast<std::size_t>(std::lround(fixed_s / 0.5)));
  const double p99 = windowed_quantile(fixed, fixed.latency_us, 0.99, windows, fixed_s);
  const double decisions = static_cast<double>(fixed.decisions_ok);

  out.metric("setup_s", median(setup_s), "s");
  out.metric("p50_us", p50, "us");
  out.metric("capacity_per_s", best, "1/s");
  out.metric("cpu_ns_per_item", decisions > 0 ? (cpu1 - cpu0) / decisions : 0.0, "ns");
  out.metric("win_fraction",
             decisions > 0 ? static_cast<double>(fixed.won) / decisions : 0.0,
             "fraction");
  out.metric("peak_rss_mb", rss, "MiB");

  std::vector<double> lag = fixed.lag_us;
  out.note(shape.name + ": offered " + fmt(fixed_rate) + " decisions/s on " +
           std::to_string(kConnections) + " connections, " +
           std::to_string(shape.batch) + " decisions/frame, limit p99 <= " +
           fmt(kLatencyLimitUs) + " us");
  out.note("  decide_p50_us = " + fmt(p50) + " (n=" + std::to_string(lat.size()) +
           " frames), decide_p99_us = " + fmt(p99) + " (median of " +
           std::to_string(windows) + " windows of ~" +
           std::to_string(lat.size() / windows) + " frames)");
  out.note("  max_decisions_per_s = " + fmt(best) +
           " (ladder rate:verdict(p99 us/lag p99 us/failed frames):" + ladder.str() + ")");
  out.note("  daemon_cpu_ns_per_decision = " + fmt((cpu1 - cpu0) / std::max(1.0, decisions)) +
           ", win_fraction = " + fmt(static_cast<double>(fixed.won) / std::max(1.0, decisions)) +
           " (n=" + fmt(decisions, 12) + " decisions), quantum share = " +
           fmt(static_cast<double>(fixed.quantum) / std::max(1.0, decisions)));
  out.note("  failed_frac = " + fmt(static_cast<double>(failed) / std::max<double>(1.0, attempted)) +
           " (" + std::to_string(failed) + "/" + std::to_string(attempted) +
           " frames), loadgen lag p99 = " + fmt(quantile(lag, 0.99)) + " us");
  out.note("  cadence: " + std::to_string(scraper.scrape_ms.size()) +
           " /metrics scrapes (median " + fmt(median(scraper.scrape_ms)) +
           " ms), " + std::to_string(scraper.stats_frames) + " kStats frames");
}

}  // namespace perfbench
