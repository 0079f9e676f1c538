#include "games/canonical.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>

#include "obs/metrics.hpp"
#include "util/assert.hpp"

namespace ftl::games {

namespace {

/// -0.0 -> +0.0 so orbit-equal matrices serialise identically (cost
/// matrices genuinely contain -0.0: zero-probability inputs with f = 1).
double norm_zero(double v) { return v == 0.0 ? 0.0 : v; }

/// The canonicalisation search. Columns live in an ordered partition of
/// "cells" — groups still interchangeable given the rows placed so far.
/// Each column carries a sign that is unresolved until the first placed row
/// with a nonzero entry there fixes it (to whatever renders that entry
/// positive, i.e. lexicographically maximal).
///
/// The search runs on integer codes, not doubles: entry v becomes
/// sign(v) * (1 + rank of |v| among the matrix's distinct nonzero
/// magnitudes), and +-0 becomes 0. Every value the search compares has the
/// form +-v, and the map is strictly increasing on those, so each
/// lexicographic comparison and each tie comes out as it would on the
/// doubles.
///
/// Level d holds the state after d placements: the partition as a column
/// permutation plus cell-start flags, the column signs (0 while
/// unresolved), the used-row mask and the tied candidates. All levels are
/// sized once per search; `place` writes level d + 1 in place, so a node
/// does no heap work.
class Canonicalizer {
 public:
  Canonicalizer(const std::vector<std::vector<double>>& m,
                std::uint64_t node_cap)
      : nx_(m.size()),
        ny_(m.front().size()),
        node_cap_(node_cap),
        code_(nx_ * ny_),
        perm_((nx_ + 1) * ny_),
        start_((nx_ + 1) * ny_, 0),
        sign_((nx_ + 1) * ny_, 0),
        used_(nx_ + 1, 0),
        any_resolved_(nx_ + 1, 0),
        tied_(nx_ * 2 * nx_),
        path_(nx_),
        cur_(ny_),
        best_str_(ny_),
        adj_(ny_),
        emitted_(nx_ * ny_),
        best_(nx_ * ny_) {
    for (const auto& row : m) {
      for (const double v : row) {
        if (v != 0.0) mag_.push_back(std::abs(v));
      }
    }
    std::sort(mag_.begin(), mag_.end());
    mag_.erase(std::unique(mag_.begin(), mag_.end()), mag_.end());
    for (std::size_t x = 0; x < nx_; ++x) {
      for (std::size_t y = 0; y < ny_; ++y) {
        const double v = m[x][y];
        if (v == 0.0) continue;
        const int rank = 1 + static_cast<int>(
                                 std::lower_bound(mag_.begin(), mag_.end(),
                                                  std::abs(v)) -
                                 mag_.begin());
        code_[x * ny_ + y] = v > 0.0 ? rank : -rank;
      }
    }
    // The root: one cell holding every column in order, no sign resolved.
    for (std::size_t c = 0; c < ny_; ++c) perm_[c] = c;
    start_[0] = 1;
  }

  /// Runs the search; false when it hit the node cap.
  bool run() {
    visit(0);
    return !aborted_;
  }

  [[nodiscard]] std::uint64_t nodes() const { return nodes_; }

  /// The lex-max emitted matrix, decoded back to the input's doubles:
  /// negation is exact, so -|v| is bit for bit the s * sign * v it stands
  /// for, and code 0 decodes to +0.
  [[nodiscard]] std::vector<double> best_matrix() const {
    FTL_ASSERT(have_best_);
    std::vector<double> out(best_.size());
    for (std::size_t i = 0; i < best_.size(); ++i) {
      const int k = best_[i];
      out[i] = k > 0 ? mag_[static_cast<std::size_t>(k - 1)]
                     : k < 0 ? -mag_[static_cast<std::size_t>(-k - 1)] : 0.0;
    }
    return out;
  }

 private:
  struct Candidate {
    std::size_t row;
    int sign;
  };

  [[nodiscard]] const int* row_codes(std::size_t r) const {
    return code_.data() + r * ny_;
  }

  /// Renders candidate row `r` with sign `s` at level `d` into `cur_`: per
  /// cell, the entries as they would appear after the within-cell
  /// descending sort the final matrix is free to apply. Returns the
  /// rendering's order against `best_str_` (+1 when there is none yet),
  /// stopping early once it compares lower.
  int render(std::size_t d, std::size_t r, int s, bool have_best_str) {
    const int* row = row_codes(r);
    const std::size_t* perm = &perm_[d * ny_];
    const char* start = &start_[d * ny_];
    const int* sign = &sign_[d * ny_];
    int order = have_best_str ? 0 : 1;
    std::size_t b = 0;
    while (b < ny_) {
      std::size_t e = b + 1;
      while (e < ny_ && start[e] == 0) ++e;
      for (std::size_t p = b; p < e; ++p) {
        const std::size_t c = perm[p];
        cur_[p] = sign[c] != 0 ? s * sign[c] * row[c] : std::abs(row[c]);
      }
      for (std::size_t p = b + 1; p < e; ++p) {
        const int v = cur_[p];
        std::size_t q = p;
        for (; q > b && cur_[q - 1] < v; --q) cur_[q] = cur_[q - 1];
        cur_[q] = v;
      }
      if (order == 0) {
        for (std::size_t p = b; p < e; ++p) {
          if (cur_[p] != best_str_[p]) {
            order = cur_[p] > best_str_[p] ? 1 : -1;
            break;
          }
        }
        if (order < 0) return order;
      }
      b = e;
    }
    return order;
  }

  /// Places (r, s) on level `d`, writing level d + 1: resolves pending
  /// column signs at the row's nonzero entries, then refines every cell by
  /// the row's adjusted values (a stable descending sort, equal values
  /// grouped into one cell).
  void place(std::size_t d, std::size_t r, int s) {
    const int* row = row_codes(r);
    const std::size_t* perm = &perm_[d * ny_];
    const char* start = &start_[d * ny_];
    std::size_t* next_perm = &perm_[(d + 1) * ny_];
    char* next_start = &start_[(d + 1) * ny_];
    int* next_sign = &sign_[(d + 1) * ny_];
    std::copy_n(&sign_[d * ny_], ny_, next_sign);
    used_[d + 1] = used_[d] | (std::uint32_t{1} << r);
    any_resolved_[d + 1] = any_resolved_[d];
    std::size_t b = 0;
    while (b < ny_) {
      std::size_t e = b + 1;
      while (e < ny_ && start[e] == 0) ++e;
      for (std::size_t p = b; p < e; ++p) {
        const std::size_t c = perm[p];
        const int k = row[c];
        if (next_sign[c] == 0 && k != 0) {
          next_sign[c] = s * k > 0 ? 1 : -1;
          any_resolved_[d + 1] = 1;
        }
        // An unresolved column has k == 0 here, so its value is 0.
        const std::pair<int, std::size_t> a{s * next_sign[c] * k, c};
        std::size_t q = p - b;
        for (; q > 0 && adj_[q - 1].first < a.first; --q) adj_[q] = adj_[q - 1];
        adj_[q] = a;
      }
      for (std::size_t p = b; p < e; ++p) {
        next_perm[p] = adj_[p - b].second;
        next_start[p] = p == b || adj_[p - b].first != adj_[p - b - 1].first;
      }
      b = e;
    }
  }

  /// Emits the completed placement and keeps it if it is the lex-max so
  /// far. Columns are unresolved at the end only where every row is 0, so
  /// s * sign * code is each entry's value throughout.
  void emit() {
    const std::size_t* perm = &perm_[nx_ * ny_];
    const int* sign = &sign_[nx_ * ny_];
    int* out = emitted_.data();
    for (const Candidate& placed : path_) {
      const int* row = row_codes(placed.row);
      for (std::size_t p = 0; p < ny_; ++p) {
        const std::size_t c = perm[p];
        *out++ = placed.sign * sign[c] * row[c];
      }
    }
    if (!have_best_ || std::lexicographical_compare(best_.begin(), best_.end(),
                                                    emitted_.begin(),
                                                    emitted_.end())) {
      best_.swap(emitted_);
      have_best_ = true;
    }
  }

  void visit(std::size_t d) {
    if (++nodes_ > node_cap_) {
      aborted_ = true;
      return;
    }
    if (d == nx_) {
      emit();
      return;
    }
    // Candidates: every unplaced row, both signs once any column sign is
    // resolved. Before that, +1 only: the global flip (all row and column
    // signs at once) maps each completion to one with identical rendering,
    // so exploring both halves of that symmetry is pure waste.
    Candidate* tied = &tied_[d * 2 * nx_];
    std::size_t num_tied = 0;
    const int lo = any_resolved_[d] != 0 ? -1 : 1;
    for (std::size_t r = 0; r < nx_; ++r) {
      if ((used_[d] >> r) & 1u) continue;
      for (int s = 1; s >= lo; s -= 2) {
        const int order = render(d, r, s, num_tied > 0);
        if (order > 0) {
          best_str_.swap(cur_);
          num_tied = 0;
          tied[num_tied++] = {r, s};
        } else if (order == 0) {
          tied[num_tied++] = {r, s};
        }
      }
    }
    for (std::size_t i = 0; i < num_tied; ++i) {
      place(d, tied[i].row, tied[i].sign);
      path_[d] = tied[i];
      visit(d + 1);
      if (aborted_) return;
    }
  }

  std::size_t nx_;
  std::size_t ny_;
  std::uint64_t node_cap_;
  std::vector<double> mag_;  // distinct nonzero magnitudes, ascending
  std::vector<int> code_;    // row-major entry codes

  // Per-level state, level d at offset d * ny_ (tied_: d * 2 * nx_).
  std::vector<std::size_t> perm_;
  std::vector<char> start_;
  std::vector<int> sign_;
  std::vector<std::uint32_t> used_;
  std::vector<char> any_resolved_;
  std::vector<Candidate> tied_;
  std::vector<Candidate> path_;  // the placement made at each level

  std::vector<int> cur_;       // rendering under test
  std::vector<int> best_str_;  // lex-max rendering at the current node
  std::vector<std::pair<int, std::size_t>> adj_;  // one cell's refinement
  std::vector<int> emitted_;
  std::vector<int> best_;  // lex-max emitted matrix so far

  std::uint64_t nodes_ = 0;
  bool aborted_ = false;
  bool have_best_ = false;
};

std::string serialize(std::size_t nx, std::size_t ny,
                      const std::vector<double>& vals) {
  std::string out;
  out.reserve(16 + vals.size() * 8);
  const auto push_u64 = [&out](std::uint64_t v) {
    char buf[8];
    std::memcpy(buf, &v, 8);
    out.append(buf, 8);
  };
  push_u64(nx);
  push_u64(ny);
  for (double v : vals) {
    std::uint64_t bits;
    const double nv = norm_zero(v);
    std::memcpy(&bits, &nv, 8);
    push_u64(bits);
  }
  return out;
}

std::string raw_key(const std::vector<std::vector<double>>& m) {
  std::vector<double> flat;
  flat.reserve(m.size() * m.front().size());
  for (const auto& row : m) flat.insert(flat.end(), row.begin(), row.end());
  return serialize(m.size(), m.front().size(), flat);
}

}  // namespace

std::string CanonicalForm::key() const {
  if (!complete) return {};
  return serialize(nx, ny, matrix);
}

CanonicalForm canonical_form(const std::vector<std::vector<double>>& m,
                             const CanonicalOptions& opts) {
  const std::size_t nx = m.size();
  FTL_ASSERT(nx >= 1 && !m.front().empty());
  const std::size_t ny = m.front().size();
  FTL_ASSERT_MSG(nx <= 32, "row bitmask is 32 bits");

  for (const auto& row : m) {
    FTL_ASSERT_MSG(row.size() == ny, "ragged matrix");
    for (const double v : row) FTL_ASSERT(std::isfinite(v));
  }
  Canonicalizer cz(m, opts.node_cap);

  CanonicalForm out;
  out.nx = nx;
  out.ny = ny;
  out.complete = cz.run();
  out.nodes = cz.nodes();
  if (out.complete) out.matrix = cz.best_matrix();
  return out;
}

std::vector<std::vector<double>> relabel_cost_matrix(
    const std::vector<std::vector<double>>& m,
    const std::vector<std::size_t>& row_perm,
    const std::vector<std::size_t>& col_perm,
    const std::vector<int>& row_sign, const std::vector<int>& col_sign) {
  const std::size_t nx = m.size();
  const std::size_t ny = m.front().size();
  FTL_ASSERT(row_perm.size() == nx && row_sign.size() == nx);
  FTL_ASSERT(col_perm.size() == ny && col_sign.size() == ny);
  std::vector<std::vector<double>> out(nx, std::vector<double>(ny, 0.0));
  for (std::size_t x = 0; x < nx; ++x) {
    for (std::size_t y = 0; y < ny; ++y) {
      const double s =
          static_cast<double>(row_sign[x]) * static_cast<double>(col_sign[y]);
      out[x][y] = s * m[row_perm[x]][col_perm[y]];
    }
  }
  return out;
}

XorValueCache::XorValueCache(CanonicalOptions opts) : opts_(opts) {}

std::optional<CachedXorValue> XorValueCache::lookup(
    const std::vector<std::vector<double>>& m) {
  auto& reg = obs::registry();
  reg.counter("games.cache.lookups").inc();
  ++stats_.lookups;

  pending_raw_key_ = raw_key(m);
  pending_canon_key_.clear();
  pending_valid_ = true;

  if (const auto it = raw_.find(pending_raw_key_); it != raw_.end()) {
    reg.counter("games.cache.hits").inc();
    ++stats_.hits_exact;
    return it->second;
  }
  const CanonicalForm cf = canonical_form(m, opts_);
  if (!cf.complete) {
    reg.counter("games.cache.canonical_bailouts").inc();
    ++stats_.canonical_bailouts;
  } else {
    pending_canon_key_ = cf.key();
    if (const auto it = canon_.find(pending_canon_key_); it != canon_.end()) {
      reg.counter("games.cache.hits").inc();
      ++stats_.hits_canonical;
      // Promote to the exact map so byte-identical repeats skip
      // canonicalisation next time.
      raw_.emplace(pending_raw_key_, it->second);
      return it->second;
    }
  }
  reg.counter("games.cache.misses").inc();
  ++stats_.misses;
  return std::nullopt;
}

void XorValueCache::insert(const std::vector<std::vector<double>>& m,
                           const CachedXorValue& v) {
  std::string rk;
  std::string ck;
  if (pending_valid_ && pending_raw_key_ == raw_key(m)) {
    rk = pending_raw_key_;
    ck = pending_canon_key_;
  } else {
    rk = raw_key(m);
    const CanonicalForm cf = canonical_form(m, opts_);
    if (cf.complete) ck = cf.key();
  }
  pending_valid_ = false;
  raw_[rk] = v;
  if (!ck.empty()) canon_[ck] = v;
  obs::registry().counter("games.cache.insertions").inc();
  ++stats_.insertions;
}

}  // namespace ftl::games
