#include "ftlcoordd/loadgen.hpp"

#include <chrono>
#include <deque>
#include <ostream>
#include <thread>
#include <vector>

#include "ftlcoordd/net.hpp"
#include "obs/spanctx.hpp"
#include "obs/trace.hpp"

namespace ftl::coordd {

namespace {

using Clock = std::chrono::steady_clock;

struct WorkerResult {
  bool ok = true;
  std::string error;
  std::uint64_t decisions_sent = 0;
  std::uint64_t decisions_ok = 0;
  std::uint64_t decisions_rejected = 0;
  std::uint64_t quantum = 0;
  std::uint64_t rounds_won = 0;
  std::uint64_t deadline_missed = 0;
  util::Histogram latency{0.0, 0.05, 500};
};

/// What a worker remembers about each batch in flight: the send time for
/// RTT, and the batch's trace context (zero ids when unsampled) so the
/// client-side batch_rtt span can be recorded when the reply lands.
struct InflightBatch {
  Clock::time_point sent_at;
  std::uint64_t trace_id = 0;
  std::uint64_t span_id = 0;
};

void run_worker(const LoadgenConfig& cfg, std::size_t worker_idx,
                std::uint64_t batches, WorkerResult& out) {
  const int fd = connect_tcp(cfg.host, cfg.port);
  if (fd < 0) {
    out.ok = false;
    out.error = "connect failed";
    return;
  }
  const auto source = static_cast<std::uint32_t>(
      cfg.sources == 0 ? 0 : worker_idx % cfg.sources);

  // The batch content is static (alternating inputs): encode once, send
  // many times. Input bits model the environment's game inputs. The frame
  // only needs re-encoding per send when it carries per-send state — a
  // fresh send timestamp (deadline runs) or a sampled trace context.
  DecideRequestV2 req;
  req.source = source;
  req.deadline_us = cfg.deadline_us;
  req.inputs.resize(cfg.batch);
  for (std::size_t i = 0; i < cfg.batch; ++i) {
    req.inputs[i] = static_cast<std::uint8_t>(i & 1u);
  }
  const bool dynamic_frame = cfg.trace_sample_n > 0 || cfg.deadline_us > 0;
  std::vector<std::uint8_t> frame = encode_decide_request_v2(req);

  // Open-loop departure schedule (per worker share of the offered rate),
  // with a bounded pipeline so an overloaded daemon exerts backpressure
  // instead of unbounded client memory.
  const double per_worker_rate =
      cfg.rate_hz > 0.0 ? cfg.rate_hz / static_cast<double>(cfg.threads) : 0.0;
  const auto interval =
      per_worker_rate > 0.0
          ? std::chrono::duration_cast<Clock::duration>(
                std::chrono::duration<double>(
                    static_cast<double>(cfg.batch) / per_worker_rate))
          : Clock::duration::zero();

  std::deque<InflightBatch> inflight;
  std::vector<std::uint8_t> payload;
  std::uint64_t sent = 0, received = 0;
  auto next_send = Clock::now();

  const auto read_one = [&]() -> bool {
    if (!read_frame(fd, payload)) {
      out.ok = false;
      out.error = "read failed";
      return false;
    }
    const InflightBatch batch = inflight.front();
    inflight.pop_front();
    const auto rtt =
        std::chrono::duration<double>(Clock::now() - batch.sent_at).count();
    out.latency.add(rtt);
    ++received;
    obs::Tracer& tracer = obs::tracer();
    if (batch.trace_id != 0 && tracer.active()) {
      // The client-side batch span: the daemon's serve_batch span (same
      // trace id, parented to this span id) nests under it after merge.
      tracer.record_span("batch_rtt", "loadgen", tracer.ts_us(batch.sent_at),
                         rtt * 1e6, batch.trace_id, batch.span_id, 0);
    }
    Status status = Status::kMalformed;
    const auto entries = decode_decide_response(payload, &status);
    if (entries) {
      out.decisions_ok += entries->size();
      for (const DecisionEntry& e : *entries) {
        if ((e.flags & DecisionEntry::kQuantumBit) != 0) ++out.quantum;
        if ((e.flags & DecisionEntry::kRoundWonBit) != 0) ++out.rounds_won;
        if ((e.flags & DecisionEntry::kDeadlineMissBit) != 0) {
          ++out.deadline_missed;
        }
      }
    } else if (status == Status::kRejected) {
      // Backpressure: the batch was shed; open loop does not retry.
      out.decisions_rejected += cfg.batch;
    } else {
      out.ok = false;
      out.error = "malformed response";
      return false;
    }
    return true;
  };

  while (received < batches && out.ok) {
    if (sent < batches && inflight.size() < cfg.pipeline) {
      if (per_worker_rate > 0.0) {
        const auto now = Clock::now();
        if (now < next_send) {
          // Not due yet: drain a response if one is owed, else sleep out
          // the schedule gap.
          if (!inflight.empty()) {
            if (!read_one()) break;
            continue;
          }
          std::this_thread::sleep_until(next_send);
        }
        next_send += interval;
      }
      obs::TraceContext ctx;  // zero ids = unsampled
      if (cfg.trace_sample_n > 0 && sent % cfg.trace_sample_n == 0) {
        ctx = obs::TraceContext::derive(cfg.seed, worker_idx, sent);
      }
      if (dynamic_frame) {
        req.trace_id = ctx.trace_id;
        req.parent_span_id = ctx.span_id;
        req.client_send_steady_ns = static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                Clock::now().time_since_epoch())
                .count());
        frame = encode_decide_request_v2(req);
      }
      if (!write_frame(fd, frame)) {
        out.ok = false;
        out.error = "write failed";
        break;
      }
      inflight.push_back({Clock::now(), ctx.trace_id, ctx.span_id});
      ++sent;
      out.decisions_sent += cfg.batch;
      continue;
    }
    if (!read_one()) break;
  }

  close_fd(fd);
}

}  // namespace

LoadgenResult run_loadgen(const LoadgenConfig& cfg, std::ostream& log) {
  LoadgenResult result;
  if (cfg.threads == 0 || cfg.batch == 0) {
    result.error = "threads and batch must be positive";
    return result;
  }
  const std::uint64_t batches_total =
      (cfg.decisions + cfg.batch - 1) / cfg.batch;
  const std::uint64_t per_worker =
      (batches_total + cfg.threads - 1) / cfg.threads;

  std::vector<WorkerResult> workers(cfg.threads);
  std::vector<std::thread> threads;
  threads.reserve(cfg.threads);
  const auto t0 = Clock::now();
  for (std::size_t i = 0; i < cfg.threads; ++i) {
    threads.emplace_back(run_worker, std::cref(cfg), i, per_worker,
                         std::ref(workers[i]));
  }
  for (auto& t : threads) t.join();
  result.wall_s = std::chrono::duration<double>(Clock::now() - t0).count();

  std::vector<std::size_t> counts;
  std::size_t underflow = 0, overflow = 0;
  result.ok = true;
  for (const WorkerResult& w : workers) {
    if (!w.ok) {
      result.ok = false;
      result.error = w.error;
    }
    result.decisions_sent += w.decisions_sent;
    result.decisions_ok += w.decisions_ok;
    result.decisions_rejected += w.decisions_rejected;
    result.quantum += w.quantum;
    result.rounds_won += w.rounds_won;
    result.deadline_missed += w.deadline_missed;
    if (counts.empty()) counts.assign(w.latency.counts().size(), 0);
    for (std::size_t b = 0; b < counts.size(); ++b) {
      counts[b] += w.latency.counts()[b];
    }
    underflow += w.latency.underflow();
    overflow += w.latency.overflow();
  }
  if (!counts.empty()) {
    result.latency =
        util::Histogram::from_counts(0.0, 0.05, counts, underflow, overflow);
  }

  // Scrape the daemon's aggregate counters once, over a fresh connection.
  const int fd = connect_tcp(cfg.host, cfg.port);
  if (fd >= 0) {
    std::vector<std::uint8_t> payload;
    if (write_frame(fd, encode_stats_request()) && read_frame(fd, payload)) {
      if (const auto stats = decode_stats_response(payload)) {
        result.server_stats = *stats;
      }
    }
    close_fd(fd);
  }

  log << "loadgen: " << result.decisions_ok << " decisions ok, "
      << result.decisions_rejected << " rejected, in " << result.wall_s
      << " s = " << result.achieved_rate_hz() / 1e6
      << " M decisions/s; hit fraction " << result.hit_fraction()
      << ", win fraction "
      << (result.decisions_ok > 0
              ? static_cast<double>(result.rounds_won) /
                    static_cast<double>(result.decisions_ok)
              : 0.0)
      << "\n";
  if (cfg.deadline_us > 0) {
    log << "loadgen: deadline " << cfg.deadline_us << " us, "
        << result.deadline_missed << " decisions missed it\n";
  }
  log << "loadgen: batch RTT p50 " << result.latency.quantile(0.5) * 1e6
      << " us, p95 " << result.latency.quantile(0.95) * 1e6 << " us, p99 "
      << result.latency.quantile(0.99) * 1e6 << " us\n"
      << "server:  generated " << result.server_stats.pairs_generated
      << ", delivered " << result.server_stats.pairs_delivered
      << ", expired " << result.server_stats.pairs_expired << ", in memory "
      << result.server_stats.pairs_in_memory << "\n";
  return result;
}

}  // namespace ftl::coordd
