// Physics-law invariant checkers for the quantum core.
//
// These are the reusable predicates the property-based suites (and any
// future refactor) lean on. Each is an *independent* implementation of the
// law it checks — e.g. trace preservation is verified through the Choi
// matrix, not through Channel::is_trace_preserving — so a bug in the
// production path and a bug in the checker cannot cancel.
#pragma once

#include <string>

#include "qcore/channels.hpp"
#include "qcore/matrix.hpp"
#include "qcore/state.hpp"

namespace ftl::qcore {

/// Hermitian, unit trace, positive semidefinite (within tol).
[[nodiscard]] bool is_density_matrix(const CMat& rho, double tol = 1e-8);

/// True iff the amplitudes form a unit-norm vector.
[[nodiscard]] bool is_normalized(const StateVec& psi, double tol = 1e-8);

/// Choi matrix J(Phi) = sum_ij |i><j| (x) Phi(|i><j|) of a Kraus channel.
/// For a single-qubit channel this is 4x4. Phi is CP iff J is PSD, and
/// trace preserving iff the partial trace of J over the *output* factor is
/// the identity on the input space.
[[nodiscard]] CMat choi_matrix(const Channel& ch);

/// J(Phi) is Hermitian PSD (complete positivity).
[[nodiscard]] bool is_completely_positive(const Channel& ch,
                                          double tol = 1e-8);

/// Tr_out J(Phi) == I, i.e. sum_k K^dagger K = I — checked through the Choi
/// matrix, independently of Channel::is_trace_preserving.
[[nodiscard]] bool choi_trace_preserving(const Channel& ch,
                                         double tol = 1e-8);

/// The full physical-channel invariant: CP and TP.
[[nodiscard]] bool is_cptp(const Channel& ch, double tol = 1e-8);

/// Explains the first violated clause ("not Hermitian", "trace != 1", ...);
/// empty when `rho` is a valid density matrix. Property-test failure notes
/// use this so a shrunk counterexample names the broken law.
[[nodiscard]] std::string density_violation(const CMat& rho,
                                            double tol = 1e-8);

}  // namespace ftl::qcore
