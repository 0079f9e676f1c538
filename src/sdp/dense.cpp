#include "sdp/dense.hpp"

#include <cmath>

#include "obs/metrics.hpp"
#include "util/assert.hpp"

namespace ftl::sdp {

std::vector<double> solve_linear(RMat a, std::vector<double> b) {
  const std::size_t n = a.rows();
  FTL_ASSERT(a.cols() == n && b.size() == n);
  obs::registry().counter("sdp.dense.solves").inc();
  // Forward elimination with partial pivoting.
  for (std::size_t col = 0; col < n; ++col) {
    std::size_t pivot = col;
    for (std::size_t r = col + 1; r < n; ++r) {
      if (std::abs(a.at(r, col)) > std::abs(a.at(pivot, col))) pivot = r;
    }
    FTL_ASSERT_MSG(std::abs(a.at(pivot, col)) > 1e-300,
                   "singular linear system");
    if (pivot != col) {
      for (std::size_t c = 0; c < n; ++c) std::swap(a.at(col, c), a.at(pivot, c));
      std::swap(b[col], b[pivot]);
    }
    const double inv = 1.0 / a.at(col, col);
    for (std::size_t r = col + 1; r < n; ++r) {
      const double f = a.at(r, col) * inv;
      if (f == 0.0) continue;
      for (std::size_t c = col; c < n; ++c) a.at(r, c) -= f * a.at(col, c);
      b[r] -= f * b[col];
    }
  }
  // Back substitution.
  std::vector<double> x(n, 0.0);
  for (std::size_t i = n; i-- > 0;) {
    double s = b[i];
    for (std::size_t c = i + 1; c < n; ++c) s -= a.at(i, c) * x[c];
    x[i] = s / a.at(i, i);
  }
  return x;
}

}  // namespace ftl::sdp
