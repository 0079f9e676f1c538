// §3: "all quantum technologies operate with an error margin, which system
// designs must account for." This bench quantifies the margin:
//   - CHSH win probability vs Werner visibility (advantage dies at
//     v = 1/sqrt2 ~ 0.707, i.e. Bell fidelity ~ 0.78),
//   - end-to-end load-balancing queue length vs visibility,
//   - CHSH win probability vs QNIC storage time for §3's cited
//     room-temperature memories (T2 ~ 100 us, storage 16-160 us).
#include <cmath>
#include <iostream>
#include <memory>

#include "bench_common.hpp"
#include "correlate/decision_source.hpp"
#include "lb/simulator.hpp"
#include "qnet/decoherence.hpp"
#include "qnet/detector.hpp"
#include "util/table.hpp"

namespace {

using namespace ftl;

std::uint64_t g_seed = 777;  // override with --seed

double lb_queue_at_knee(double visibility) {
  lb::LbConfig cfg;
  cfg.num_balancers = 100;
  cfg.num_servers = 86;  // load ~1.16
  cfg.warmup_steps = 800;
  cfg.measure_steps = 3000;
  cfg.seed = g_seed;
  lb::PairedStrategy strat(
      std::make_unique<correlate::ChshSource>(visibility));
  return run_lb_sim(cfg, strat).mean_queue_length;
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
  const ftl::bench::ObsSession obs_session("bench_noise_ablation", obs_opts);

  std::cout << "\nCHSH win probability and end-to-end queue length vs pair "
               "visibility (classical references: win 0.75, queue "
            << lb_queue_at_knee(0.0) << " at v=0):\n";
  util::Table t({"visibility", "bell fidelity", "chsh win", "avg queue len"});
  for (double v : {1.0, 0.9, 0.8, 0.75, 0.71, 0.6}) {
    correlate::ChshSource src(v);
    t.add_row({v, (1.0 + 3.0 * v) / 4.0, src.win_probability(0, 0),
               lb_queue_at_knee(v)});
  }
  t.print(std::cout);

  std::cout << "\nCHSH win vs storage time (v0=0.98, T1=500us, T2=100us; "
               "paper cites 16-160us room-temperature storage):\n";
  util::Table st({"storage (us)", "chsh win", "still beats classical"});
  for (double t_us : {0.0, 8.0, 16.0, 40.0, 80.0, 160.0}) {
    const double win = qnet::chsh_win_after_storage(
        0.98, t_us * 1e-6, t_us * 1e-6, 500e-6, 100e-6);
    st.add_row({t_us, win, std::string(win > 0.75 ? "yes" : "no")});
  }
  st.print(std::cout);
  std::cout << "\nDetector inefficiency (one-sided failures break the "
               "correlation and win only 50%):\n";
  util::Table dt({"efficiency", "chsh win", "verdict"});
  for (double eta : {1.0, 0.95, 0.90, 0.85, 0.83, 0.80, 0.70}) {
    const double w = qnet::chsh_win_with_detectors(eta, 1.0);
    dt.add_row({eta, w,
                std::string(w > 0.75 ? "deploy" : "turn quantum OFF")});
  }
  dt.print(std::cout);
  std::cout << "break-even efficiency (ideal pairs): "
            << qnet::breakeven_efficiency(1.0)
            << "; at visibility 0.9: " << qnet::breakeven_efficiency(0.9)
            << "\n";

  std::cout << "\nUseful storage window at v0=0.98: "
            << qnet::useful_storage_window_s(0.98, 500e-6, 100e-6) * 1e6
            << " us\n";
  return 0;
}
