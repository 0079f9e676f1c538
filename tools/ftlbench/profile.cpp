#include "ftlbench/profile.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <set>
#include <system_error>

namespace ftl::benchtool {

namespace {

namespace fs = std::filesystem;

/// Single-quote shell quoting (same scheme the runner uses).
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

bool parse_count(std::string_view digits, std::uint64_t& out) {
  if (digits.empty() || digits.size() > 19) return false;
  std::uint64_t v = 0;
  for (const char c : digits) {
    if (c < '0' || c > '9') return false;
    v = v * 10 + static_cast<std::uint64_t>(c - '0');
  }
  if (v == 0) return false;
  out = v;
  return true;
}

}  // namespace

bool parse_folded(std::string_view text, FoldedProfile& out,
                  std::string& error) {
  out = FoldedProfile{};
  std::size_t line_no = 0;
  std::size_t pos = 0;
  while (pos <= text.size()) {
    const std::size_t eol = text.find('\n', pos);
    std::string_view line = text.substr(
        pos, eol == std::string_view::npos ? std::string_view::npos
                                           : eol - pos);
    ++line_no;
    if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
    if (!line.empty()) {
      const std::size_t sp = line.rfind(' ');
      std::uint64_t count = 0;
      if (sp == std::string_view::npos || sp == 0 ||
          !parse_count(line.substr(sp + 1), count)) {
        error = "line " + std::to_string(line_no) +
                ": expected '<stack> <count>'";
        return false;
      }
      out.stacks[std::string(line.substr(0, sp))] += count;
      out.total_samples += count;
    }
    if (eol == std::string_view::npos) break;
    pos = eol + 1;
  }
  error.clear();
  return true;
}

std::map<std::string, FrameStat> frame_stats(const FoldedProfile& profile) {
  std::map<std::string, FrameStat> stats;
  std::set<std::string_view> seen;  // dedupe recursion within one stack
  for (const auto& [stack, count] : profile.stacks) {
    seen.clear();
    std::size_t pos = 0;
    const std::string_view sv(stack);
    std::string_view leaf;
    while (pos <= sv.size()) {
      const std::size_t sep = sv.find(';', pos);
      const std::string_view frame = sv.substr(
          pos, sep == std::string_view::npos ? std::string_view::npos
                                             : sep - pos);
      if (!frame.empty()) {
        leaf = frame;
        if (seen.insert(frame).second) {
          stats[std::string(frame)].total += count;
        }
      }
      if (sep == std::string_view::npos) break;
      pos = sep + 1;
    }
    if (!leaf.empty()) stats[std::string(leaf)].self += count;
  }
  return stats;
}

std::vector<FrameDelta> diff_profiles(const FoldedProfile& base,
                                      const FoldedProfile& cand) {
  const std::map<std::string, FrameStat> base_stats = frame_stats(base);
  const std::map<std::string, FrameStat> cand_stats = frame_stats(cand);
  const double base_total =
      base.total_samples > 0 ? static_cast<double>(base.total_samples) : 1.0;
  const double cand_total =
      cand.total_samples > 0 ? static_cast<double>(cand.total_samples) : 1.0;

  std::vector<FrameDelta> rows;
  rows.reserve(base_stats.size() + cand_stats.size());
  const auto pct_of = [](const std::map<std::string, FrameStat>& stats,
                         const std::string& frame, double total) {
    const auto it = stats.find(frame);
    return it == stats.end()
               ? 0.0
               : 100.0 * static_cast<double>(it->second.total) / total;
  };
  // Union walk: base_stats drives, then candidate-only frames.
  for (const auto& [frame, stat] : base_stats) {
    (void)stat;
    FrameDelta d;
    d.frame = frame;
    d.base_pct = pct_of(base_stats, frame, base_total);
    d.cand_pct = pct_of(cand_stats, frame, cand_total);
    d.delta_pp = d.cand_pct - d.base_pct;
    rows.push_back(std::move(d));
  }
  for (const auto& [frame, stat] : cand_stats) {
    (void)stat;
    if (base_stats.count(frame) != 0) continue;
    FrameDelta d;
    d.frame = frame;
    d.cand_pct = pct_of(cand_stats, frame, cand_total);
    d.delta_pp = d.cand_pct;
    rows.push_back(std::move(d));
  }
  std::sort(rows.begin(), rows.end(),
            [](const FrameDelta& a, const FrameDelta& b) {
              const double da = std::fabs(a.delta_pp);
              const double db = std::fabs(b.delta_pp);
              if (da != db) return da > db;
              return a.frame < b.frame;
            });
  return rows;
}

bool run_bench_profiled(const ProfiledRunConfig& config, std::string& error) {
  const fs::path binary = fs::path(config.bench_dir) / config.bench;
  std::error_code ec;
  if (!fs::exists(binary, ec)) {
    error = "no such bench binary: " + binary.string();
    return false;
  }
  std::string cmd = shell_quote(binary.string());
  cmd += " --profile-out=" + shell_quote(config.out_path);
  cmd += " --profile-hz " + std::to_string(config.hz);
  if (config.has_seed) cmd += " --seed " + std::to_string(config.seed);
  if (!config.log_path.empty())
    cmd += " >" + shell_quote(config.log_path) + " 2>&1";

  const int rc = std::system(cmd.c_str());
  if (rc != 0) {
    error = config.bench + " exited with status " + std::to_string(rc);
    if (!config.log_path.empty()) error += " (log: " + config.log_path + ")";
    return false;
  }
  if (!fs::exists(config.out_path, ec) ||
      fs::file_size(config.out_path, ec) == 0) {
    error = config.bench + " wrote no profile at " + config.out_path +
            " (built with FTL_OBS_ENABLED=OFF?)";
    return false;
  }
  error.clear();
  return true;
}

}  // namespace ftl::benchtool
