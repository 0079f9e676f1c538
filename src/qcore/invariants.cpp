#include "qcore/invariants.hpp"

#include <cmath>

#include "qcore/eigen.hpp"
#include "util/assert.hpp"

namespace ftl::qcore {

bool is_density_matrix(const CMat& rho, double tol) {
  return density_violation(rho, tol).empty();
}

std::string density_violation(const CMat& rho, double tol) {
  if (!rho.is_square() || rho.empty()) return "not a non-empty square matrix";
  if (!rho.is_hermitian(tol)) return "not Hermitian";
  const Cx tr = rho.trace();
  if (std::abs(tr.real() - 1.0) > tol || std::abs(tr.imag()) > tol) {
    return "trace != 1 (got " + std::to_string(tr.real()) + ")";
  }
  if (!is_psd(rho, tol)) return "not positive semidefinite";
  return "";
}

bool is_normalized(const StateVec& psi, double tol) {
  return std::abs(psi.norm() - 1.0) <= tol;
}

CMat choi_matrix(const Channel& ch) {
  FTL_ASSERT(!ch.kraus.empty());
  const std::size_t d_in = ch.kraus.front().cols();
  const std::size_t d_out = ch.kraus.front().rows();
  for (const CMat& k : ch.kraus) {
    FTL_ASSERT(k.rows() == d_out && k.cols() == d_in);
  }
  CMat j(d_in * d_out, d_in * d_out);
  for (std::size_t i = 0; i < d_in; ++i) {
    for (std::size_t jj = 0; jj < d_in; ++jj) {
      // Phi(|i><j|) = sum_k K |i><j| K^dagger; |i><j| picks out column i of
      // K against the conjugate of column j, so the block is
      // sum_k K[:, i] * conj(K[:, j])^T.
      for (const CMat& k : ch.kraus) {
        for (std::size_t r = 0; r < d_out; ++r) {
          for (std::size_t c = 0; c < d_out; ++c) {
            j.at(i * d_out + r, jj * d_out + c) +=
                k.at(r, i) * std::conj(k.at(c, jj));
          }
        }
      }
    }
  }
  return j;
}

bool is_completely_positive(const Channel& ch, double tol) {
  const CMat j = choi_matrix(ch);
  return j.is_hermitian(tol) && is_psd(j, tol);
}

bool choi_trace_preserving(const Channel& ch, double tol) {
  const CMat j = choi_matrix(ch);
  const std::size_t d_in = ch.kraus.front().cols();
  const std::size_t d_out = ch.kraus.front().rows();
  // Tr_out J: contract each (i, j) block over its output indices.
  CMat reduced(d_in, d_in);
  for (std::size_t i = 0; i < d_in; ++i) {
    for (std::size_t jj = 0; jj < d_in; ++jj) {
      Cx sum{0.0, 0.0};
      for (std::size_t r = 0; r < d_out; ++r) {
        sum += j.at(i * d_out + r, jj * d_out + r);
      }
      reduced.at(i, jj) = sum;
    }
  }
  return reduced.approx_equal(CMat::identity(d_in), tol);
}

bool is_cptp(const Channel& ch, double tol) {
  if (ch.kraus.empty()) return false;
  return is_completely_positive(ch, tol) && choi_trace_preserving(ch, tol);
}

}  // namespace ftl::qcore
