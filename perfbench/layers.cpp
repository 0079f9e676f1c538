// The traced per-layer ledger. Every traced run emits every per-layer
// metric, whichever workload it names: each layer is measured on the inputs
// of the workload it belongs to (generated from the run's seed), by timing
// the benchmark's own calls into the layer's public functions or by
// reading the daemon's public /metrics and kStats. Names carry the workload
// they describe (coordd_small.*, coordd_large.*) where both coordd
// workloads exercise the layer.
#include <algorithm>
#include <cmath>
#include <memory>
#include <optional>
#include <set>
#include <thread>

#include "coordd_workload.hpp"
#include "correlate/decision_source.hpp"
#include "fig4_workload.hpp"
#include "ftlcoordd/protocol.hpp"
#include "games/bnb.hpp"
#include "games/canonical.hpp"
#include "lb/server.hpp"
#include "obs/metrics.hpp"
#include "perfbench.hpp"
#include "qnet/live_broker.hpp"
#include "sdp/tsirelson.hpp"
#include "sim/sharded.hpp"
#include "util/rng.hpp"
#include "xor_workload.hpp"

namespace perfbench {

namespace coordd = ftl::coordd;

namespace {

constexpr const char* kStages[] = {"socket_read", "admission", "pair_acquire",
                                   "decide", "reply_write"};

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

bool ends_with(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

/// Sum of the deltas of every counter sample (family ends in "_total").
double counter_delta(const PromSamples& a, const PromSamples& b) {
  double sum = 0.0;
  for (const auto& [key, value] : b) {
    if (ends_with(key.substr(0, key.find('{')), "_total")) {
      sum += value - (a.count(key) != 0 ? a.at(key) : 0.0);
    }
  }
  return sum;
}

/// Sum of the `_count` deltas of every histogram. Only families that also
/// export `_bucket` samples count: gauges such as the sliding windows'
/// `*_window_count` end in `_count` too.
double histogram_count_delta(const PromSamples& a, const PromSamples& b) {
  std::set<std::string> histograms;
  for (const auto& [key, value] : b) {
    const std::string family = key.substr(0, key.find('{'));
    if (ends_with(family, "_bucket")) {
      histograms.insert(family.substr(0, family.size() - 7));
    }
  }
  double sum = 0.0;
  for (const auto& [key, value] : b) {
    const std::string family = key.substr(0, key.find('{'));
    if (ends_with(family, "_count") &&
        histograms.count(family.substr(0, family.size() - 6)) != 0) {
      sum += value - (a.count(key) != 0 ? a.at(key) : 0.0);
    }
  }
  return sum;
}

// ---------------------------------------------------------------------------
// ftlcoordd.net / ftlcoordd.daemon / obs scrape / broker kStats: a short
// traced run of the real daemon at the workload's fixed rate.
// ---------------------------------------------------------------------------

void daemon_layers(const Options& opt, bool large, Result& out) {
  const CoorddShape shape = coordd_shape(large);
  const std::string p = shape.name + ".";
  const double rate = shape.offered_rate_hz;
  const std::vector<std::uint8_t> inputs = workload_inputs(opt.seed);
  CoorddSession session;
  const bool ok = session.open(opt, shape);
  out.check(ok, "ledger: could not start " + shape.name);
  if (!ok) return;
  const int stats_fd = session.stats_fds.front();

  const PhaseStats warm = session.run(rate, 0.2, inputs, 0);
  std::vector<double> scrape_ms(2);
  const auto m0 = scrape_metrics(session.daemon.metrics_port, &scrape_ms[0]);
  const auto s0 = fetch_stats(stats_fd);
  PhaseStats st;
  std::size_t stats_frames = 2;  // s0 and s1, plus the cadence's
  {
    const ScopedSpan span(large ? "coordd_large.fixed_rate" : "coordd_small.fixed_rate");
    // coordd_large's cadence reads run beside the decide frames, as in the
    // workload; coordd_small has none.
    std::optional<Scraper> scraper;
    if (large) scraper.emplace(session.daemon.metrics_port, stats_fd);
    st = session.run(rate, 1.0, inputs, 1u << 12);
    if (scraper) {
      scraper->stop();
      stats_frames += scraper->stats_frames;
      scrape_ms.insert(scrape_ms.end(), scraper->scrape_ms.begin(),
                       scraper->scrape_ms.end());
      out.check(scraper->stats_violations == 0 && scraper->scrape_failures == 0,
                "ledger: a cadence kStats/metrics read failed or broke conservation");
    }
  }
  const auto s1 = fetch_stats(stats_fd);
  const auto m1 = scrape_metrics(session.daemon.metrics_port, &scrape_ms[1]);
  session.close();
  out.check(session.daemon.stop() == 0, "ledger: daemon exited uncleanly");
  out.check(m0 && m1 && s0 && s1 && stats_conserved(*s1) &&
                !st.connection_lost && st.bad_entries == 0 && warm.bad_entries == 0,
            "ledger: " + shape.name + " traced run failed a check");
  out.count(st.frames_due, st.failed_frames());
  if (!m0 || !m1 || !s0 || !s1) return;
  out.check(prom_delta(*m0, *m1, "ftl_qnet_live_frames_total") ==
                static_cast<double>(st.frames_sent + stats_frames),
            "ledger: " + shape.name + " daemon frame count differs from the client's");

  // ftlcoordd.net and the generator, from the client's own calls.
  out.metric(p + "net.write_us", ratio(st.write_us_sum, static_cast<double>(st.frames_sent)), "us");
  out.metric(p + "net.read_wait_us",
             ratio(st.read_wait_us_sum, static_cast<double>(st.frames_ok)), "us");
  std::vector<double> lag = st.lag_us;
  out.metric(p + "loadgen.lag_p99_us", quantile(lag, 0.99), "us");

  // ftlcoordd.daemon: stage means from the /metrics histogram deltas (the
  // exporter's sums are bin-centre estimates over 25 us bins).
  for (const char* stage : kStages) {
    const std::string label = std::string("{stage=\"") + stage + "\"}";
    const double n = prom_delta(*m0, *m1, "ftl_coordd_stage_us_count" + label);
    const double sum = prom_delta(*m0, *m1, "ftl_coordd_stage_us_sum" + label);
    out.metric(p + "daemon.stage." + stage + "_us", ratio(sum, n), "us");
  }
  out.metric(p + "daemon.stage_count",
             prom_delta(*m0, *m1, "ftl_coordd_stage_us_count{stage=\"pair_acquire\"}"),
             "count");
  out.metric(p + "daemon.frames", prom_delta(*m0, *m1, "ftl_qnet_live_frames_total"),
             "count");

  // qnet.live_broker as the daemon reports it through kStats.
  const double req = static_cast<double>(s1->requests - s0->requests);
  const double delivered = static_cast<double>(s1->pairs_delivered - s0->pairs_delivered);
  out.metric(p + "broker.hit_frac", ratio(static_cast<double>(s1->hits - s0->hits), req),
             "fraction");
  out.metric(p + "broker.dropped_full_frac",
             ratio(static_cast<double>(s1->pairs_dropped_full - s0->pairs_dropped_full),
                   delivered),
             "fraction");
  out.metric(p + "broker.expired_frac",
             ratio(static_cast<double>(s1->pairs_expired - s0->pairs_expired), delivered),
             "fraction");
  out.metric(p + "broker.rejected", static_cast<double>(s1->rejected - s0->rejected),
             "count");

  // obs: registry writes per decision, from the registry's own deltas
  // (counter increments count inc(n) as n), and the scrape cost.
  out.metric(p + "obs.counter_incs_per_decision", ratio(counter_delta(*m0, *m1), req),
             "count");
  out.metric(p + "obs.histogram_observes_per_decision",
             ratio(histogram_count_delta(*m0, *m1), req), "count");
  out.metric(p + "obs.scrape_ms", median(scrape_ms), "ms");
}

// ---------------------------------------------------------------------------
// ftlcoordd.protocol: the workload's frames through the daemon-side decode
// and encode functions.
// ---------------------------------------------------------------------------

void protocol_layers(const Options& opt, bool large, Result& out) {
  const CoorddShape shape = coordd_shape(large);
  const std::string p = shape.name + ".";
  const std::vector<std::uint8_t> inputs = workload_inputs(opt.seed);
  constexpr std::size_t kFrames = 256;
  std::vector<std::vector<std::uint8_t>> frames(kFrames);
  std::vector<std::vector<coordd::DecisionEntry>> replies(kFrames);
  for (std::size_t f = 0; f < kFrames; ++f) {
    coordd::DecideRequestV2 req;
    req.source = static_cast<std::uint32_t>(f % shape.sources);
    for (std::size_t i = 0; i < shape.batch; ++i) {
      req.inputs.push_back(inputs[(f * shape.batch + i) % inputs.size()]);
    }
    frames[f] = coordd::encode_decide_request_v2(req);
    for (const std::uint8_t b : req.inputs) {
      replies[f].push_back(coordd::DecisionEntry{b, 49151});
    }
  }
  // About 4M request bytes per timed loop, whatever the frame size.
  const std::size_t reps = std::max<std::size_t>(8, 4'000'000 / (shape.batch * kFrames));
  std::size_t sink = 0;
  std::int64_t t0 = now_ns();
  {
    const ScopedSpan span("ftlcoordd.protocol.decode_decide_request_v2");
    for (std::size_t r = 0; r < reps; ++r) {
      for (const auto& fr : frames) {
        coordd::ByteReader rd(fr.data(), fr.size());
        (void)rd.u8();
        const auto req = coordd::decode_decide_request_v2(rd);
        sink += req ? req->inputs.size() : 0;
      }
    }
  }
  const double decode_ns = static_cast<double>(now_ns() - t0) / static_cast<double>(reps * kFrames);
  t0 = now_ns();
  {
    const ScopedSpan span("ftlcoordd.protocol.encode_decide_response");
    for (std::size_t r = 0; r < reps; ++r) {
      for (const auto& rep : replies) sink += coordd::encode_decide_response(rep).size();
    }
  }
  const double encode_ns = static_cast<double>(now_ns() - t0) / static_cast<double>(reps * kFrames);
  out.check(sink > 0, "ledger: protocol replay produced nothing");
  out.metric(p + "protocol.decode_ns_per_frame", decode_ns, "ns");
  out.metric(p + "protocol.encode_ns_per_frame", encode_ns, "ns");
}

// ---------------------------------------------------------------------------
// qnet.live_broker: a stepped LiveBroker replay of the fixed-rate schedule
// (same physics, sources, seed and input bits as the daemon run).
// ---------------------------------------------------------------------------

void broker_layers(const Options& opt, bool large, Result& out) {
  const CoorddShape shape = coordd_shape(large);
  const std::string p = shape.name + ".";
  const double rate = shape.offered_rate_hz;
  const std::vector<std::uint8_t> inputs = workload_inputs(opt.seed);
  ftl::qnet::LiveBrokerConfig cfg;
  cfg.qnet.pair_rate_hz = shape.pair_rate_hz;
  cfg.qnet.fiber_km = shape.fiber_km;
  cfg.sources = shape.sources;
  ftl::qnet::LiveBroker broker(cfg, sub_seed(opt.seed, 1) >> 1);

  // Frames alternate between the sources, as the two connections
  // interleave their schedules. Each source's decisions are spread evenly
  // over its own frame interval (virtual time), so the pools see the
  // offered decision rate rather than one instant per frame.
  const double interval_s = static_cast<double>(shape.batch) / rate;
  const double per_decision_s =
      interval_s * static_cast<double>(shape.sources) / static_cast<double>(shape.batch);
  const auto frames = static_cast<std::size_t>(0.5 / interval_s);
  double produce_ns = 0.0;
  double decide_ns = 0.0;
  std::uint64_t hits = 0;
  {
    const ScopedSpan span("qnet.live_broker.stepped_replay");
    for (std::size_t f = 0; f < frames; ++f) {
      const double t = static_cast<double>(f) * interval_s;
      const std::size_t source = f % shape.sources;
      const std::int64_t t0 = now_ns();
      broker.produce_until(source, t);
      const std::int64_t t1 = now_ns();
      for (std::size_t i = 0; i < shape.batch; ++i) {
        const double ti = t + static_cast<double>(i) * per_decision_s;
        hits += broker.decide(source, inputs[(f * shape.batch + i) % inputs.size()], ti)
                    .quantum;
      }
      const std::int64_t t2 = now_ns();
      produce_ns += static_cast<double>(t1 - t0);
      decide_ns += static_cast<double>(t2 - t1);
    }
  }
  constexpr std::size_t kAdmits = 1'000'000;
  std::size_t admitted = 0;
  const std::int64_t a0 = now_ns();
  for (std::size_t i = 0; i < kAdmits; ++i) {
    if (broker.try_admit(shape.batch)) {
      broker.release(shape.batch);
      ++admitted;
    }
  }
  const double admit_ns = static_cast<double>(now_ns() - a0) / kAdmits;
  const auto stats = broker.stats();
  out.check(admitted == kAdmits && stats.conservation_holds() && stats.hits == hits,
            "ledger: stepped broker replay failed a check");
  out.metric(p + "broker.decide_ns",
             decide_ns / static_cast<double>(frames * shape.batch), "ns");
  out.metric(p + "broker.produce_ns", produce_ns / static_cast<double>(frames), "ns");
  out.metric(p + "broker.admit_ns", admit_ns, "ns");
  out.metric(p + "broker.replay_hit_frac", stats.hit_fraction(), "fraction");
}

// ---------------------------------------------------------------------------
// obs: the public Counter::inc / Histogram::observe on private metrics.
// ---------------------------------------------------------------------------

void obs_layers(Result& out) {
  auto& counter = ftl::obs::registry().counter("perfbench.probe.counter");
  auto& hist = ftl::obs::registry().histogram("perfbench.probe.histogram", 0.0, 1.0, 50);
  constexpr std::size_t kCalls = 4'000'000;
  std::int64_t t0 = now_ns();
  for (std::size_t i = 0; i < kCalls; ++i) counter.inc();
  const double inc_ns = static_cast<double>(now_ns() - t0) / kCalls;
  t0 = now_ns();
  for (std::size_t i = 0; i < kCalls; ++i) {
    hist.observe(static_cast<double>(i & 1023) / 1024.0);
  }
  const double observe_ns = static_cast<double>(now_ns() - t0) / kCalls;
  out.metric("obs.counter_inc_ns", inc_ns, "ns");
  out.metric("obs.histogram_observe_ns", observe_ns, "ns");
}

// ---------------------------------------------------------------------------
// lb / correlate / sim: replays of the fig4_sharded configuration.
// ---------------------------------------------------------------------------

void fig4_layers(const Options& opt, Result& out) {
  const ftl::lb::ShardedLbConfig cfg = fig4_config(sub_seed(opt.seed, 3));

  // correlate: OutcomeTable sampling of the quantum-CHSH source.
  const ftl::correlate::ChshSource chsh(cfg.visibility);
  ftl::util::Rng rng(sub_seed(opt.seed, 6));
  constexpr std::size_t kSamples = 4'000'000;
  std::vector<std::uint8_t> xy(4096);
  for (auto& v : xy) v = static_cast<std::uint8_t>(rng.uniform_int(4));
  long long won = 0;
  std::int64_t t0 = now_ns();
  {
    const ScopedSpan span("correlate.OutcomeTable.sample");
    for (std::size_t i = 0; i < kSamples; ++i) {
      const int x = xy[i & 4095] >> 1;
      const int y = xy[i & 4095] & 1;
      const auto [a, b] = chsh.table().sample(x, y, rng);
      won += ((a ^ b) != 0) == !(x == 1 && y == 1) ? 1 : 0;
    }
  }
  out.metric("correlate.sample_ns", static_cast<double>(now_ns() - t0) / kSamples, "ns");
  out.check(won > 0, "ledger: no CHSH round won in the sampling replay");

  // lb: one shard's generated arrivals replayed into a ServerArray.
  const auto balancers = ftl::sim::shard_range(cfg.num_balancers, cfg.num_shards, 0);
  const auto servers = ftl::sim::shard_range(cfg.num_servers, cfg.num_shards, 0);
  const std::size_t n_b = balancers.size();
  const std::size_t n_s = servers.size();
  const long steps = cfg.warmup_steps + cfg.measure_steps;
  ftl::util::Rng arrivals(sub_seed(opt.seed, 7));
  ftl::util::Rng strategy(sub_seed(opt.seed, 8));
  ftl::correlate::ChshSource source(cfg.visibility);
  std::vector<ftl::lb::TaskType> types(static_cast<std::size_t>(steps) * n_b);
  std::vector<std::uint32_t> targets(types.size());
  for (long s = 0; s < steps; ++s) {
    const std::size_t base = static_cast<std::size_t>(s) * n_b;
    for (std::size_t b = 0; b < n_b; ++b) {
      types[base + b] = arrivals.bernoulli(cfg.p_colocate) ? ftl::lb::TaskType::kC
                                                           : ftl::lb::TaskType::kE;
    }
    for (std::size_t b = 0; b + 1 < n_b; b += 2) {
      const auto [s0, s1] = strategy.distinct_pair(n_s);
      const int x = types[base + b] == ftl::lb::TaskType::kC ? 1 : 0;
      const int y = types[base + b + 1] == ftl::lb::TaskType::kC ? 1 : 0;
      const auto [a, bb] = source.decide(x, y, strategy);
      targets[base + b] = static_cast<std::uint32_t>(a == 0 ? s0 : s1);
      targets[base + b + 1] = static_cast<std::uint32_t>(bb == 0 ? s0 : s1);
    }
  }
  ftl::lb::ServerArray array(n_s);
  ftl::lb::Request served[2];
  double enqueue_ns = 0.0;
  double step_ns = 0.0;
  long long arrived = 0;
  long long done = 0;
  {
    const ScopedSpan span("lb.ServerArray.replay");
    for (long s = 0; s < steps; ++s) {
      const std::size_t base = static_cast<std::size_t>(s) * n_b;
      const std::int64_t e0 = now_ns();
      for (std::size_t b = 0; b < n_b; ++b) {
        array.enqueue(targets[base + b], types[base + b], static_cast<std::uint32_t>(b),
                      static_cast<std::int32_t>(s));
      }
      const std::int64_t e1 = now_ns();
      for (std::size_t v = 0; v < n_s; ++v) done += static_cast<long long>(array.step(v, cfg.policy, served));
      const std::int64_t e2 = now_ns();
      enqueue_ns += static_cast<double>(e1 - e0);
      step_ns += static_cast<double>(e2 - e1);
      arrived += static_cast<long long>(n_b);
    }
  }
  long long queued = 0;
  for (std::size_t v = 0; v < n_s; ++v) queued += static_cast<long long>(array.queue_length(v));
  out.check(arrived == done + queued, "ledger: ServerArray replay lost requests");
  out.metric("lb.server_array.enqueue_ns", enqueue_ns / static_cast<double>(arrived), "ns");
  out.metric("lb.server_array.step_ns",
             step_ns / static_cast<double>(static_cast<std::size_t>(steps) * n_s), "ns");

  // sim: ShardPool parallel efficiency T(1) / (W * T(W)) on a shortened run.
  ftl::lb::ShardedLbConfig short_cfg = cfg;
  short_cfg.warmup_steps = 20;
  short_cfg.measure_steps = 80;
  const std::size_t workers = worker_count();
  const auto time_run = [&](ftl::sim::ShardPool& pool) {
    std::vector<double> t;
    for (int i = 0; i < 3; ++i) {
      const ScopedSpan span("lb.run_sharded_lb_sim");
      const std::int64_t r0 = now_ns();
      const auto r = ftl::lb::run_sharded_lb_sim(short_cfg, &pool);
      t.push_back(static_cast<double>(now_ns() - r0));
      out.check(fig4_violation(r).empty(), "ledger: fig4 replay run failed its check");
    }
    return median(t);
  };
  ftl::sim::ShardPool one(1);
  ftl::sim::ShardPool many(workers);
  const double t1 = time_run(one);
  const double tw = time_run(many);
  out.metric("sim.pool_parallel_eff", t1 / (static_cast<double>(workers) * tw), "fraction");
}

// ---------------------------------------------------------------------------
// games / sdp: the value layers on the sweep's own games.
// ---------------------------------------------------------------------------

void xor_layers(const Options& opt, Result& out) {
  const std::uint64_t seed = sub_seed(opt.seed, 4);
  const std::vector<SweepGame> games = xor_sweep_games(seed);
  auto& reg = ftl::obs::registry();
  const double sweeps0 = static_cast<double>(reg.counter("sdp.gram.sweeps").value());
  const double solves0 = static_cast<double>(reg.counter("sdp.gram.solves").value());

  // One engine sweep: which layer answered each game.
  SweepEngines engines(seed);
  std::vector<bool> solved(games.size());
  std::vector<bool> closed_form(games.size());
  {
    const ScopedSpan span("games.sweep");
    for (std::size_t i = 0; i < games.size(); ++i) {
      const ScopedSpan eval("games.XorValueEngine.evaluate");
      const auto r = engines.for_vertices(games[i].vertices).evaluate(games[i].cost);
      solved[i] = !r.from_closed_form && !r.from_cache;
      closed_form[i] = r.from_closed_form;
    }
  }
  const double sweeps = static_cast<double>(reg.counter("sdp.gram.sweeps").value()) - sweeps0;
  const double solves = static_cast<double>(reg.counter("sdp.gram.solves").value()) - solves0;
  double warm = 0.0;
  double engine_solved = 0.0;
  for (const std::size_t n : kSweepVertices) {
    const auto& st = engines.for_vertices(n).stats();
    const std::string v = ".v" + std::to_string(n);
    out.metric("games.closed_form_frac" + v,
               ratio(static_cast<double>(st.closed_form_hits), static_cast<double>(st.evaluations)),
               "fraction");
    out.metric("games.cache_hit_frac" + v,
               ratio(static_cast<double>(st.cache_hits), static_cast<double>(st.evaluations)),
               "fraction");
    warm += static_cast<double>(st.warm_starts);
    engine_solved += static_cast<double>(st.games_solved);
  }
  out.metric("games.warm_start_frac", ratio(warm, engine_solved), "fraction");
  out.metric("sdp.sweeps", ratio(sweeps, solves), "count");

  // canonical_form on every game that reached the cache layer (the
  // engine canonicalises exactly those).
  std::int64_t t0 = now_ns();
  std::size_t canonicalised = 0;
  std::size_t complete = 0;
  {
    const ScopedSpan span("games.canonical_form");
    for (std::size_t i = 0; i < games.size(); ++i) {
      if (closed_form[i]) continue;
      complete += ftl::games::canonical_form(games[i].cost).complete ? 1 : 0;
      ++canonicalised;
    }
  }
  out.metric("games.canonical_us",
             ratio(static_cast<double>(now_ns() - t0) / 1e3,
                   static_cast<double>(canonicalised)),
             "us");
  out.check(complete > 0, "ledger: no game canonicalised");

  // bnb on every game the engine had to solve; cold SDP solves on up to
  // kSdpSamples of them per vertex count.
  constexpr std::size_t kSdpSamples = 12;
  double nodes = 0.0;
  double bnb_calls = 0.0;
  for (const std::size_t n : kSweepVertices) {
    const std::string v = ".v" + std::to_string(n);
    double bnb_ns = 0.0;
    double calls = 0.0;
    std::vector<double> sdp_ms;
    for (std::size_t i = 0; i < games.size(); ++i) {
      if (games[i].vertices != n || !solved[i]) continue;
      const std::int64_t b0 = now_ns();
      ftl::games::BnbResult bnb;
      {
        const ScopedSpan span("games.classical_value_bnb");
        bnb = ftl::games::classical_value_bnb(games[i].cost);
      }
      bnb_ns += static_cast<double>(now_ns() - b0);
      nodes += static_cast<double>(bnb.nodes);
      calls += 1.0;
      if (sdp_ms.size() < kSdpSamples) {
        ftl::sdp::GramOptions gram = xor_engine_options(seed, n).sdp;
        const std::int64_t s0 = now_ns();
        ftl::sdp::XorBiasResult q;
        {
          const ScopedSpan span("sdp.xor_quantum_bias");
          q = ftl::sdp::xor_quantum_bias(games[i].cost, gram);
        }
        sdp_ms.push_back(static_cast<double>(now_ns() - s0) / 1e6);
        out.check(bnb.bias <= q.bias + 1e-6, "ledger: classical bias above quantum");
      }
    }
    bnb_calls += calls;
    out.metric("games.bnb_us" + v, ratio(bnb_ns / 1e3, calls), "us");
    out.metric("sdp.solve_ms" + v, mean(sdp_ms), "ms");
  }
  out.metric("games.bnb_nodes", ratio(nodes, bnb_calls), "count");
}

}  // namespace

void run_ledger(const Options& opt, Result& out) {
  for (const bool large : {false, true}) {
    daemon_layers(opt, large, out);
    protocol_layers(opt, large, out);
    broker_layers(opt, large, out);
  }
  obs_layers(out);
  fig4_layers(opt, out);
  xor_layers(opt, out);
}

}  // namespace perfbench
