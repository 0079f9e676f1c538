// The §4.2 no-signaling reduction, executable.
//
// Claim: if switch C is spacelike-separated from A and B, then A and B's
// joint outcome distribution cannot depend on anything C does; hence C may
// as well measure first, which collapses any tripartite entangled state
// into a classical mixture of *pairwise* states between A and B. Thus
// N-way entanglement buys nothing beyond M-way when only M switches'
// outcomes matter.
//
// These functions state the reduction numerically so the test suite and the
// bench can verify it on arbitrary states and bases.
#pragma once

#include <vector>

#include "qcore/density.hpp"

namespace ftl::ecmp {

/// Joint distribution of measuring qubits a and b of `rho` in the given
/// bases: entry [oa][ob].
[[nodiscard]] std::vector<std::vector<double>> joint_ab(
    const qcore::Density& rho, std::size_t qubit_a, const qcore::CMat& basis_a,
    std::size_t qubit_b, const qcore::CMat& basis_b);

/// Max absolute difference between joint_ab and the joint computed with C
/// measuring first in basis_c (averaged over C's outcomes), over all outcome
/// pairs — zero (to numerical precision) for every physical state/basis.
[[nodiscard]] double no_signaling_deviation(
    const qcore::Density& rho, std::size_t qubit_a, const qcore::CMat& basis_a,
    std::size_t qubit_b, const qcore::CMat& basis_b, std::size_t qubit_c,
    const qcore::CMat& basis_c);

/// The reduction constructively: C measures in `basis_c`; returns the
/// ensemble {(probability, pairwise state of the remaining qubits)} that
/// replaces the tripartite state. Any protocol using the tripartite state
/// can instead pre-sample from this ensemble — i.e. use only pairwise
/// entanglement plus shared randomness.
[[nodiscard]] std::vector<std::pair<double, qcore::Density>>
reduce_by_measuring(const qcore::Density& rho, std::size_t qubit_c,
                    const qcore::CMat& basis_c);

}  // namespace ftl::ecmp
