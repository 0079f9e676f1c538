// perfbench: the repository benchmark's measuring binary (perfbench/run.py
// builds and runs it).
//
//   perfbench --workload coordd_large|fig4_sharded|xor_sweep
//             --seed N --seconds S --trace 0|1 --daemon PATH
//             [--spans-out PATH]
//
// Untraced runs print every end-to-end metric; traced runs (--trace 1)
// print every per-layer metric and write the span file. Either way the last
// stdout line is the result JSON, and the exit code is nonzero when any
// correctness check failed.
#include <algorithm>
#include <iostream>
#include <iterator>
#include <string>

#include "perfbench.hpp"

namespace {

using perfbench::Options;
using perfbench::Result;

bool parse(int argc, char** argv, Options& opt) {
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) return false;
    const std::string v = argv[++i];
    if (a == "--workload") opt.workload = v;
    else if (a == "--seed") opt.seed = std::stoull(v);
    else if (a == "--seconds") opt.seconds = std::stod(v);
    else if (a == "--trace") opt.trace = v != "0";
    else if (a == "--daemon") opt.daemon = v;
    else if (a == "--spans-out") opt.spans_out = v;
    else return false;
  }
  return opt.seconds > 0.0;
}

constexpr const char* kWorkloads[] = {"coordd_large", "fig4_sharded",
                                      "xor_sweep"};

/// Runs the named workload's end-to-end measurement.
void run_workload(const Options& opt, Result& out) {
  if (opt.workload == "coordd_large") perfbench::run_coordd_large(opt, out);
  if (opt.workload == "fig4_sharded") perfbench::run_fig4(opt, out);
  if (opt.workload == "xor_sweep") perfbench::run_xor(opt, out);
}

/// Tracing overhead on the workload's headline metric: the same short
/// measurement untraced, then traced; positive = tracing made it worse.
double tracing_overhead(const Options& opt, Result& out) {
  Options shortrun = opt;
  shortrun.seconds = std::min(opt.seconds, 4.0);
  Result plain;
  Result traced;
  run_workload(shortrun, plain);
  perfbench::spans_enable(1u << 19);
  run_workload(shortrun, traced);
  out.absorb(plain);
  out.absorb(traced);
  const bool latency = opt.workload == "coordd_large";
  const std::string key = latency ? "p50_us" : "capacity_per_s";
  if (!plain.has(key) || !traced.has(key)) return 0.0;
  const double a = plain.value(key);
  const double b = traced.value(key);
  return latency ? b / a - 1.0 : a / b - 1.0;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  if (!parse(argc, argv, opt)) {
    std::cerr << "usage: perfbench --workload W --seed N --seconds S "
                 "--trace 0|1 --daemon PATH [--spans-out PATH]\n";
    return 2;
  }
  Result out;
  if (std::find(std::begin(kWorkloads), std::end(kWorkloads), opt.workload) ==
      std::end(kWorkloads)) {
    std::cerr << "perfbench: unknown workload '" << opt.workload << "'\n";
    return 2;
  }
  if (!opt.trace) {
    run_workload(opt, out);
  } else {
    const double overhead = tracing_overhead(opt, out);
    perfbench::run_ledger(opt, out);
    out.metric("trace.overhead_frac", overhead, "fraction");
    out.metric("trace.spans", static_cast<double>(perfbench::spans_recorded()),
               "count");
    out.check(perfbench::spans_recorded() > 0, "traced run recorded no spans");
    if (!opt.spans_out.empty()) {
      out.check(perfbench::spans_write(opt.spans_out),
                "could not write span file " + opt.spans_out);
      out.note("spans written to " + opt.spans_out);
    }
  }
  std::cout << out.json() << std::endl;
  return out.correct() ? 0 : 1;
}
