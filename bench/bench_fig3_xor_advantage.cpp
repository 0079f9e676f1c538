// Figure 3: probability that a random XOR game on an affinity graph admits
// a quantum advantage, as a function of P(edge exclusive).
//
// The paper computed this with Toqito on 5-vertex graphs; we re-platform
// the sweep on games::XorValueEngine (closed forms -> canonical-form value
// cache -> branch-and-bound classical values -> warm-started Tsirelson
// SDPs), which keeps the classical values bit-identical to the exhaustive
// search while visiting an order of magnitude fewer search nodes. That is
// what lets the reproduction extend past the paper: alongside the legacy
// 5-vertex series this bench sweeps 8-, 10- and 12-vertex graphs — the
// exhaustive path would need 2^12 leaf evaluations per graph there — and
// prints the measured node-visit speedup from the engine's obs counters.
//
// Expected shape: zero advantage probability at p = 0 (all-colocate is
// trivially winnable), rising steeply and staying near 1 across mid-range
// densities; the rise gets steeper as the vertex count grows.
#include <iostream>

#include "bench_common.hpp"
#include "games/affinity.hpp"
#include "games/realize.hpp"
#include "games/value_engine.hpp"
#include "games/xor_game.hpp"
#include "obs/metrics.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace {

std::uint64_t g_seed = 1000;  // per-point base seed; override with --seed

constexpr std::size_t kVertices = 5;  // the paper's Figure-3 size
constexpr int kGraphsPerPoint = 60;
constexpr int kScaledGraphsPerPoint = 20;
constexpr double kAdvantageTol = 1e-5;

ftl::games::XorValueOptions engine_options(std::uint64_t seed) {
  ftl::games::XorValueOptions opts;
  opts.sdp.restarts = 8;
  opts.sdp.seed = seed;
  opts.advantage_tol = kAdvantageTol;
  return opts;
}

struct PointResult {
  double p_exclusive;
  double p_advantage;
  double ci95;
  double mean_gap;  // mean (quantum - classical) bias among advantaged games
};

PointResult measure_point(ftl::games::XorValueEngine& engine,
                          std::size_t vertices, double p_exclusive,
                          int graphs, std::uint64_t seed) {
  ftl::util::Rng rng(seed);
  int advantaged = 0;
  ftl::util::Accumulator gap;
  for (int g = 0; g < graphs; ++g) {
    const auto graph =
        ftl::games::AffinityGraph::random(vertices, p_exclusive, rng);
    const auto r =
        engine.evaluate(ftl::games::XorGame::from_affinity(graph));
    if (r.advantage) {
      ++advantaged;
      gap.add(r.quantum_bias - r.classical_bias);
    }
  }
  PointResult out;
  out.p_exclusive = p_exclusive;
  out.p_advantage = static_cast<double>(advantaged) / graphs;
  out.ci95 = ftl::util::wilson_halfwidth(static_cast<std::size_t>(advantaged),
                                         graphs);
  out.mean_gap = gap.mean();
  return out;
}

}  // namespace

// Shared obs flags (see bench_common.hpp): --seed, --metrics-out,
// --metrics-every, --prom-out, --trace-out, and --profile-out /
// --profile-hz (in-process sampling CPU profile;
// folded output pipes straight into flamegraph.pl).
int main(int argc, char** argv) {
  const ftl::bench::Options obs_opts =
      ftl::bench::parse_args(argc, argv, g_seed);
  g_seed = obs_opts.seed;
  const ftl::bench::ObsSession obs_session("bench_fig3_xor_advantage", obs_opts);

  // Human-readable reproduction table (the actual Figure 3 series). One
  // engine per series: the cache and warm starts chain across the sweep,
  // exactly as the scaled runs below use them.
  {
    ftl::util::Table table(
        {"p_exclusive", "P(quantum advantage)", "ci95", "mean bias gap"});
    ftl::games::XorValueEngine engine(engine_options(g_seed));
    for (int i = 0; i <= 10; ++i) {
      const PointResult r =
          measure_point(engine, kVertices, static_cast<double>(i) / 10.0,
                        kGraphsPerPoint, g_seed + static_cast<std::uint64_t>(i));
      table.add_row({r.p_exclusive, r.p_advantage, r.ci95, r.mean_gap});
    }
    std::cout << "\nFigure 3 reproduction (5-vertex affinity graphs, "
              << kGraphsPerPoint << " graphs/point):\n";
    table.print(std::cout);
  }

  // Scaled section: 8-12 vertex graphs, out of reach for the exhaustive
  // 2^n classical search the 5-vertex sweep used to run on. Counters are
  // accumulated per vertex count so the speedup table below can report the
  // measured node-visit ratio, and mirrored into fig3.* counters that the
  // CI bench-regression gate pins (they are a pure function of the seed
  // and the game sequence — the SDP values never affect the routing).
  auto& reg = ftl::obs::registry();
  ftl::util::Table scaled(
      {"vertices", "p_exclusive", "P(quantum advantage)", "ci95"});
  ftl::util::Table speedup({"vertices", "evals", "solved", "closed form",
                            "cache hits", "bnb nodes", "exhaustive leaves",
                            "node speedup", "warm starts"});
  std::uint64_t total_nodes = 0;
  std::uint64_t total_exhaustive = 0;
  for (std::size_t n : {std::size_t{8}, std::size_t{10}, std::size_t{12}}) {
    const std::uint64_t nodes_before =
        reg.counter("games.bnb.nodes").value();
    ftl::games::XorValueEngine engine(
        engine_options(g_seed + (static_cast<std::uint64_t>(n) << 16)));
    for (int i = 0; i <= 10; ++i) {
      const PointResult r = measure_point(
          engine, n, static_cast<double>(i) / 10.0, kScaledGraphsPerPoint,
          g_seed + (static_cast<std::uint64_t>(n) << 8) +
              static_cast<std::uint64_t>(i));
      scaled.add_row({static_cast<long long>(n), r.p_exclusive,
                      r.p_advantage, r.ci95});
    }
    const auto& st = engine.stats();
    const std::uint64_t nodes =
        reg.counter("games.bnb.nodes").value() - nodes_before;
    // What the exhaustive classical path would have cost for the same
    // evaluations: 2^n leaves per game, closed-form and cache hits
    // included (the old path had neither layer).
    const std::uint64_t exhaustive =
        st.evaluations * (std::uint64_t{1} << n);
    speedup.add_row({static_cast<long long>(n),
                     static_cast<long long>(st.evaluations),
                     static_cast<long long>(st.games_solved),
                     static_cast<long long>(st.closed_form_hits),
                     static_cast<long long>(st.cache_hits),
                     static_cast<long long>(nodes),
                     static_cast<long long>(exhaustive),
                     static_cast<double>(exhaustive) /
                         static_cast<double>(nodes == 0 ? 1 : nodes),
                     static_cast<long long>(st.warm_starts)});
    reg.counter("fig3.evaluations").inc(st.evaluations);
    reg.counter("fig3.games_solved").inc(st.games_solved);
    reg.counter("fig3.closed_form_hits").inc(st.closed_form_hits);
    reg.counter("fig3.cache_hits").inc(st.cache_hits);
    reg.counter("fig3.bnb_nodes").inc(nodes);
    reg.counter("fig3.exhaustive_leaves").inc(exhaustive);
    total_nodes += nodes;
    total_exhaustive += exhaustive;
  }
  std::cout << "\nAggregate node-visit speedup over the scaled sweep: "
            << static_cast<double>(total_exhaustive) /
                   static_cast<double>(total_nodes == 0 ? 1 : total_nodes)
            << "x (" << total_exhaustive << " exhaustive leaves vs "
            << total_nodes << " bnb nodes)\n";
  std::cout << "\nScaled Figure 3 (8-12 vertex affinity graphs, "
            << kScaledGraphsPerPoint << " graphs/point, XorValueEngine):\n";
  scaled.print(std::cout);
  std::cout << "\nEngine speedup vs the exhaustive classical baseline "
               "(node visits, measured via obs counters):\n";
  speedup.print(std::cout);

  // Spot-check: the advantaged games' SDP values are physically realised
  // (Tsirelson construction, played on the simulator).
  std::cout << "\nRealization spot check (first 3 advantaged graphs at "
               "p = 0.5):\n";
  ftl::util::Rng rng(g_seed + 1025);
  ftl::util::Table rt({"graph", "classical", "quantum (SDP)",
                       "quantum (realized)", "qubits/party"});
  int shown = 0;
  for (int g = 0; g < 200 && shown < 3; ++g) {
    const auto graph = ftl::games::AffinityGraph::random(kVertices, 0.5, rng);
    const auto game = ftl::games::XorGame::from_affinity(graph);
    ftl::sdp::GramOptions opts;
    opts.restarts = 8;
    opts.seed = g_seed + 30337 + static_cast<std::uint64_t>(g);
    const auto vectors = game.quantum_bias(opts);
    const double cb = game.classical_bias();
    if (vectors.bias <= cb + 1e-4) continue;
    const ftl::games::RealizedXorStrategy strat(game, vectors);
    rt.add_row({static_cast<long long>(g), (1.0 + cb) / 2.0,
                (1.0 + vectors.bias) / 2.0, strat.value(),
                static_cast<long long>(strat.qubits_per_party())});
    ++shown;
  }
  rt.print(std::cout);
  return 0;
}
