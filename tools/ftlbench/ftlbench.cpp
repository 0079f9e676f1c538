// ftlbench — continuous-benchmarking driver for the bench suite.
//
//   ftlbench run --bench-dir=build/bench [--out-dir=.] [--benches=a,b]
//                [--seed=42] [--repetitions=1] [--metrics-every=<ms>]
//                [--verbose]
//       Runs each bench binary with a pinned seed, collects its
//       `ftl.obs.run_report/v1`, and appends one entry per repetition to
//       `<out-dir>/BENCH_<name>.json` (schema ftl.obs.bench_trajectory/v1).
//
//   ftlbench compare <baseline> <candidate> [--metric=wall_time_s[,...]]
//                [--threshold=1.25] [--confidence=0.95] [--resamples=2000]
//                [--boot-seed=1]
//       Baseline/candidate are trajectory files or directories of
//       BENCH_*.json. Prints a per-(bench, metric) table with the
//       bootstrap CI of the candidate/baseline mean ratio. Exit status:
//       0 = no regression, 1 = at least one metric regressed beyond the
//       threshold with a CI excluding 1.0, 2 = usage or I/O error, or a
//       requested metric that no common bench has on both sides.
//
//   ftlbench export <run_report.json> [--prefix=ftl_]
//       Re-serializes a run report's metrics in the Prometheus text
//       exposition format on stdout (pushgateway / textfile collector).
//
//   ftlbench trace-merge <client_trace.json> <server_trace.json>
//                [--out=merged.json] [--summary-out=summary.json]
//       Joins a loadgen trace and a ftlcoordd trace by trace id onto one
//       steady-clock timeline. --out writes the merged Chrome/Perfetto
//       document; --summary-out writes the ftl.obs.trace_summary/v1
//       stage-attribution JSON (also printed to stdout when neither flag
//       is given).
//
//   ftlbench profile <bench> --bench-dir=<dir> [--out=<path>] [--hz=99]
//                [--seed=N] [--top=15]
//       Runs one bench binary under the in-process sampling profiler,
//       writes its folded stacks (default `<bench>.folded`), and prints
//       the top-N frames by self weight.
//
//   ftlbench profile-diff <baseline.folded> <candidate.folded> [--top=20]
//                [--gate-pp=<points>]
//       Per-frame delta table between two folded profiles, sorted by
//       absolute movement of each frame's share of total CPU (percentage
//       points). With --gate-pp, exits 1 when any frame moved more than
//       the gate — a regression-style check for profile drift.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "ftlbench/compare.hpp"
#include "ftlbench/profile.hpp"
#include "ftlbench/runner.hpp"
#include "ftlbench/tracemerge.hpp"
#include "ftlbench/trajectory.hpp"
#include "obs/export.hpp"
#include "util/args.hpp"
#include "util/table.hpp"

namespace {

namespace fs = std::filesystem;
using namespace ftl;
using namespace ftl::benchtool;

int usage(std::ostream& out) {
  out << "usage:\n"
         "  ftlbench run --bench-dir=<dir> [--out-dir=.] [--benches=a,b]\n"
         "               [--seed=42] [--repetitions=1] [--metrics-every=<ms>]\n"
         "               [--verbose]\n"
         "  ftlbench compare <baseline> <candidate>\n"
         "               [--metric=wall_time_s[,...]] [--threshold=1.25]\n"
         "               [--confidence=0.95] [--resamples=2000] "
         "[--boot-seed=1]\n"
         "  ftlbench export <run_report.json> [--prefix=ftl_]\n"
         "  ftlbench trace-merge <client_trace.json> <server_trace.json>\n"
         "               [--out=merged.json] [--summary-out=summary.json]\n"
         "  ftlbench profile <bench> --bench-dir=<dir> [--out=<path>]\n"
         "               [--hz=99] [--seed=N] [--top=15]\n"
         "  ftlbench profile-diff <baseline.folded> <candidate.folded>\n"
         "               [--top=20] [--gate-pp=<points>]\n";
  return 2;
}

std::vector<std::string> split_csv(const std::string& csv) {
  std::vector<std::string> out;
  std::stringstream ss(csv);
  std::string item;
  while (std::getline(ss, item, ','))
    if (!item.empty()) out.push_back(item);
  return out;
}

/// Trajectory files addressed by a CLI path: the file itself, or every
/// BENCH_*.json inside a directory, keyed by file name.
std::map<std::string, std::string> trajectory_files(const std::string& path) {
  std::map<std::string, std::string> files;
  std::error_code ec;
  if (fs::is_directory(path, ec)) {
    for (const fs::directory_entry& e : fs::directory_iterator(path, ec)) {
      const std::string name = e.path().filename().string();
      if (name.rfind("BENCH_", 0) == 0 && e.path().extension() == ".json")
        files[name] = e.path().string();
    }
  } else {
    files[fs::path(path).filename().string()] = path;
  }
  return files;
}

int cmd_run(const util::Args& args) {
  RunConfig config;
  config.bench_dir = args.get("bench-dir", std::string());
  if (config.bench_dir.empty()) {
    std::cerr << "ftlbench run: --bench-dir is required\n";
    return 2;
  }
  config.out_dir = args.get("out-dir", std::string("."));
  config.benches = split_csv(args.get("benches", std::string()));
  config.seed = static_cast<std::uint64_t>(
      args.get("seed", static_cast<long long>(42)));
  config.repetitions = args.get("repetitions", static_cast<std::size_t>(1));
  config.metrics_every_ms = static_cast<std::uint64_t>(
      args.get("metrics-every", static_cast<long long>(0)));
  config.verbose = args.get("verbose", false);

  const int failures = run_all(config, std::cout);
  if (failures != 0) {
    std::cerr << "ftlbench run: " << failures << " run(s) failed\n";
    return 2;
  }
  return 0;
}

int cmd_compare(const util::Args& args) {
  if (args.positional().size() != 3) {  // "compare" + two paths
    std::cerr << "ftlbench compare: need <baseline> <candidate>\n";
    return 2;
  }
  CompareOptions opts;
  opts.metrics = split_csv(args.get("metric", std::string("wall_time_s")));
  opts.threshold = args.get("threshold", 1.25);
  opts.confidence = args.get("confidence", 0.95);
  opts.resamples = args.get("resamples", static_cast<std::size_t>(2000));
  opts.seed = static_cast<std::uint64_t>(
      args.get("boot-seed", static_cast<long long>(1)));
  if (opts.threshold <= 1.0) {
    std::cerr << "ftlbench compare: --threshold must be > 1\n";
    return 2;
  }

  const std::map<std::string, std::string> base_files =
      trajectory_files(args.positional()[1]);
  const std::map<std::string, std::string> cand_files =
      trajectory_files(args.positional()[2]);
  if (base_files.empty() || cand_files.empty()) {
    std::cerr << "ftlbench compare: no trajectory files found\n";
    return 2;
  }

  util::Table table({"bench", "metric", "n(base)", "n(cand)", "ratio",
                     "ci-lo", "ci-hi", "verdict"});
  table.set_precision(4);
  std::vector<CompareReport> reports;
  for (const auto& [name, base_path] : base_files) {
    const auto it = cand_files.find(name);
    if (it == cand_files.end()) {
      std::cerr << "note: " << name << " has no candidate counterpart\n";
      continue;
    }
    const std::optional<Trajectory> base = load_trajectory(base_path);
    const std::optional<Trajectory> cand = load_trajectory(it->second);
    if (!base || !cand) {
      std::cerr << "ftlbench compare: invalid trajectory in " << name << "\n";
      return 2;
    }
    const CompareReport& report =
        reports.emplace_back(compare_trajectories(*base, *cand, opts));
    for (const MetricComparison& row : report.rows) {
      const char* verdict = !row.compared()  ? "no-data"
                            : row.regressed ? "REGRESSED"
                            : row.improved  ? "improved"
                                            : "ok";
      table.add_row({row.bench, row.metric,
                     static_cast<long long>(row.n_baseline),
                     static_cast<long long>(row.n_candidate), row.ci.ratio,
                     row.ci.lo, row.ci.hi, std::string(verdict)});
    }
  }
  if (reports.empty()) {
    std::cerr << "ftlbench compare: no common bench trajectories\n";
    return 2;
  }
  table.print(std::cout);
  // A gated metric no common bench has on both sides compared nothing; a
  // silent pass would switch the gate off.
  const std::vector<std::string> missing =
      uncompared_metrics(reports, opts.metrics);
  for (const std::string& metric : missing) {
    std::cerr << "ftlbench compare: no common bench has samples of '"
              << metric << "' on both sides\n";
  }
  if (!missing.empty()) return 2;
  const bool any_regressed =
      std::any_of(reports.begin(), reports.end(),
                  [](const CompareReport& r) { return r.any_regressed(); });
  if (any_regressed) {
    std::cout << "\nREGRESSION: candidate exceeds " << opts.threshold
              << "x baseline on at least one gated metric\n";
    return 1;
  }
  std::cout << "\nno regression beyond " << opts.threshold << "x detected\n";
  return 0;
}

int cmd_export(const util::Args& args) {
  if (args.positional().size() != 2) {  // "export" + report path
    std::cerr << "ftlbench export: need <run_report.json>\n";
    return 2;
  }
  std::ifstream in(args.positional()[1]);
  if (!in) {
    std::cerr << "ftlbench export: cannot read " << args.positional()[1]
              << "\n";
    return 2;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  const std::optional<obs::ParsedRunReport> report =
      obs::parse_run_report(buf.str());
  if (!report) {
    std::cerr << "ftlbench export: not a valid ftl.obs.run_report/v1 file\n";
    return 2;
  }
  obs::ExportOptions opts;
  opts.prefix = args.get("prefix", std::string("ftl_"));
  std::cout << obs::prometheus_text(report->metrics, opts);
  return 0;
}

std::optional<std::string> slurp(const std::string& path) {
  std::ifstream in(path);
  if (!in) return std::nullopt;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

bool spill(const std::string& path, const std::string& text) {
  std::ofstream out(path);
  if (!out) return false;
  out << text << '\n';
  return static_cast<bool>(out);
}

int cmd_trace_merge(const util::Args& args) {
  if (args.positional().size() != 3) {  // "trace-merge" + two paths
    std::cerr << "ftlbench trace-merge: need <client_trace> <server_trace>\n";
    return 2;
  }
  const std::optional<std::string> client = slurp(args.positional()[1]);
  const std::optional<std::string> server = slurp(args.positional()[2]);
  if (!client || !server) {
    std::cerr << "ftlbench trace-merge: cannot read "
              << (!client ? args.positional()[1] : args.positional()[2])
              << "\n";
    return 2;
  }
  const TraceMergeResult merged = merge_traces(*client, *server);
  if (!merged.ok) {
    std::cerr << "ftlbench trace-merge: " << merged.error << "\n";
    return 2;
  }
  const std::string out_path = args.get("out", std::string());
  const std::string summary_path = args.get("summary-out", std::string());
  if (!out_path.empty() && !spill(out_path, merged.merged_json)) {
    std::cerr << "ftlbench trace-merge: cannot write " << out_path << "\n";
    return 2;
  }
  if (!summary_path.empty() && !spill(summary_path, merged.summary_json)) {
    std::cerr << "ftlbench trace-merge: cannot write " << summary_path << "\n";
    return 2;
  }
  if (out_path.empty() && summary_path.empty()) {
    std::cout << merged.summary_json << "\n";
  } else {
    std::cerr << "trace-merge: joined " << merged.traces_joined << " of "
              << merged.traces_client << " client / " << merged.traces_server
              << " server traces; mean RTT " << merged.rtt.mean_us
              << " us, attributed fraction " << merged.attributed_fraction
              << "\n";
  }
  return 0;
}

int cmd_profile(const util::Args& args) {
  if (args.positional().size() != 2) {  // "profile" + bench name
    std::cerr << "ftlbench profile: need <bench>\n";
    return 2;
  }
  ProfiledRunConfig config;
  config.bench = args.positional()[1];
  config.bench_dir = args.get("bench-dir", std::string());
  if (config.bench_dir.empty()) {
    std::cerr << "ftlbench profile: --bench-dir is required\n";
    return 2;
  }
  config.hz = static_cast<int>(args.get("hz", 99LL));
  if (args.has("seed")) {
    config.has_seed = true;
    config.seed =
        static_cast<std::uint64_t>(args.get("seed", 42LL));
  }
  config.out_path = args.get("out", config.bench + ".folded");
  config.log_path = "." + config.bench + ".profile.log.tmp";

  std::string error;
  if (!run_bench_profiled(config, error)) {
    std::cerr << "ftlbench profile: " << error << "\n";
    return 2;
  }
  std::cout << "profile (folded, " << config.hz << " Hz) written to "
            << config.out_path << "\n";

  // Top frames by self weight: the flamegraph's widest leaves, as text.
  const std::optional<std::string> text = slurp(config.out_path);
  FoldedProfile profile;
  if (!text || !parse_folded(*text, profile, error)) {
    std::cerr << "ftlbench profile: unreadable profile output: " << error
              << "\n";
    return 2;
  }
  const std::size_t top = args.get("top", static_cast<std::size_t>(15));
  std::vector<std::pair<std::string, FrameStat>> frames;
  for (auto& kv : frame_stats(profile)) frames.push_back(std::move(kv));
  std::sort(frames.begin(), frames.end(), [](const auto& a, const auto& b) {
    if (a.second.self != b.second.self) return a.second.self > b.second.self;
    return a.first < b.first;
  });
  util::Table table({"frame", "self", "self %", "total %"});
  table.set_precision(2);
  const double total = profile.total_samples > 0
                           ? static_cast<double>(profile.total_samples)
                           : 1.0;
  for (std::size_t i = 0; i < frames.size() && i < top; ++i) {
    const auto& [frame, stat] = frames[i];
    table.add_row({frame, static_cast<long long>(stat.self),
                   100.0 * static_cast<double>(stat.self) / total,
                   100.0 * static_cast<double>(stat.total) / total});
  }
  std::cout << profile.total_samples << " samples, " << profile.stacks.size()
            << " unique stacks\n";
  table.print(std::cout);
  return 0;
}

int cmd_profile_diff(const util::Args& args) {
  if (args.positional().size() != 3) {  // "profile-diff" + two paths
    std::cerr << "ftlbench profile-diff: need <baseline> <candidate>\n";
    return 2;
  }
  FoldedProfile base, cand;
  for (const auto& [which, out] :
       {std::pair<int, FoldedProfile*>{1, &base}, {2, &cand}}) {
    const std::string& path = args.positional()[static_cast<std::size_t>(which)];
    const std::optional<std::string> text = slurp(path);
    std::string error;
    if (!text || !parse_folded(*text, *out, error)) {
      std::cerr << "ftlbench profile-diff: cannot parse " << path
                << (text ? ": " + error : ": unreadable") << "\n";
      return 2;
    }
  }
  const std::vector<FrameDelta> deltas = diff_profiles(base, cand);
  const std::size_t top = args.get("top", static_cast<std::size_t>(20));
  const double gate_pp = args.get("gate-pp", 0.0);

  util::Table table({"frame", "base %", "cand %", "delta pp"});
  table.set_precision(2);
  for (std::size_t i = 0; i < deltas.size() && i < top; ++i) {
    const FrameDelta& d = deltas[i];
    table.add_row({d.frame, d.base_pct, d.cand_pct, d.delta_pp});
  }
  std::cout << "baseline " << base.total_samples << " samples, candidate "
            << cand.total_samples << " samples, " << deltas.size()
            << " frames compared\n";
  table.print(std::cout);
  if (gate_pp > 0.0 && !deltas.empty() &&
      std::abs(deltas.front().delta_pp) > gate_pp) {
    std::cout << "\nPROFILE DRIFT: top mover '" << deltas.front().frame
              << "' moved " << deltas.front().delta_pp
              << "pp, beyond the " << gate_pp << "pp gate\n";
    return 1;
  }
  if (gate_pp > 0.0) {
    std::cout << "\nno frame moved beyond " << gate_pp << "pp\n";
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const util::Args args(argc, argv);
  if (args.positional().empty()) return usage(std::cerr);
  const std::string& cmd = args.positional()[0];
  if (cmd == "run") return cmd_run(args);
  if (cmd == "compare") return cmd_compare(args);
  if (cmd == "export") return cmd_export(args);
  if (cmd == "trace-merge") return cmd_trace_merge(args);
  if (cmd == "profile") return cmd_profile(args);
  if (cmd == "profile-diff") return cmd_profile_diff(args);
  std::cerr << "ftlbench: unknown command '" << cmd << "'\n";
  return usage(std::cerr);
}
