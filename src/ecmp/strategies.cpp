#include "ecmp/strategies.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "util/assert.hpp"

namespace ftl::ecmp {

IndependentUniform::IndependentUniform(std::size_t n, std::size_t m)
    : n_(n), m_(m) {
  FTL_ASSERT(n >= 2 && m >= 2);
}

void IndependentUniform::choose(std::vector<std::size_t>& out,
                                util::Rng& rng) {
  out.resize(n_);
  for (auto& p : out) p = rng.uniform_int(m_);
}

SharedPartition::SharedPartition(std::size_t n, std::size_t m)
    : n_(n), m_(m) {
  FTL_ASSERT(n >= 2 && m >= 2);
  // Balanced path labels: sizes differ by at most one.
  assignment_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) assignment_.push_back(i % m);
}

void SharedPartition::choose(std::vector<std::size_t>& out, util::Rng& rng) {
  // The shared random seed re-shuffles which switch lands in which group
  // every round; group sizes stay balanced.
  rng.shuffle(assignment_);
  out = assignment_;
}

double SharedPartition::pair_collision_probability(std::size_t n,
                                                   std::size_t m) {
  FTL_ASSERT(n >= 2 && m >= 1);
  const std::size_t q = n / m;
  const std::size_t r = n % m;
  // r groups of size q+1, (m - r) groups of size q.
  const double same =
      static_cast<double>(r) * static_cast<double>((q + 1) * q) +
      static_cast<double>(m - r) * static_cast<double>(q * (q - 1));
  return same / static_cast<double>(n * (n - 1));
}

namespace {

/// Switch k's path in an n-switch path string s: qubit k's outcome sits at
/// bit n-1-k, the StateVec convention.
std::size_t path_of(std::size_t s, std::size_t k, std::size_t n) {
  return (s >> (n - 1 - k)) & 1U;
}

}  // namespace

LocalMeasurements::LocalMeasurements(std::string name,
                                     const qcore::StateVec& state,
                                     const std::vector<qcore::CMat>& bases)
    : name_(std::move(name)), n_(state.num_qubits()) {
  FTL_ASSERT_MSG(n_ >= 2 && n_ <= 12,
                 "local-measurement strategy sized for 2..12 switches");
  FTL_ASSERT(bases.size() == n_);
  // Rotating qubit k by bases[k]^dagger turns its measurement into a
  // computational one, so the Born joint of all N outcomes is the rotated
  // state's basis-state probabilities.
  qcore::StateVec rotated = state;
  for (std::size_t k = 0; k < n_; ++k) {
    FTL_ASSERT_MSG(bases[k].is_unitary(1e-8),
                   "measurement basis must be an orthonormal (unitary) frame");
    rotated.apply1(bases[k].adjoint(), k);
  }
  joint_ = rotated.probabilities();
  cum_.resize(joint_.size() - 1);
  std::partial_sum(joint_.begin(), joint_.end() - 1, cum_.begin());
}

void LocalMeasurements::choose(std::vector<std::size_t>& out,
                               util::Rng& rng) {
  const auto s = static_cast<std::size_t>(
      std::upper_bound(cum_.begin(), cum_.end(), rng.uniform()) -
      cum_.begin());
  out.resize(n_);
  for (std::size_t k = 0; k < n_; ++k) out[k] = path_of(s, k, n_);
}

double LocalMeasurements::pair_collision_probability(std::size_t i,
                                                     std::size_t j) const {
  FTL_ASSERT(i < n_ && j < n_ && i != j);
  double p_same = 0.0;
  for (std::size_t s = 0; s < joint_.size(); ++s) {
    if (path_of(s, i, n_) == path_of(s, j, n_)) p_same += joint_[s];
  }
  return p_same;
}

double LocalMeasurements::mean_pair_collision() const {
  double total = 0.0;
  for (std::size_t i = 0; i < n_; ++i) {
    for (std::size_t j = i + 1; j < n_; ++j) {
      total += pair_collision_probability(i, j);
    }
  }
  return total / static_cast<double>(n_ * (n_ - 1) / 2);
}

qcore::StateVec w_state(std::size_t n) {
  FTL_ASSERT(n >= 2);
  std::vector<qcore::Cx> amps(std::size_t{1} << n, qcore::Cx{0, 0});
  const double r = 1.0 / std::sqrt(static_cast<double>(n));
  for (std::size_t k = 0; k < n; ++k) {
    amps[std::size_t{1} << k] = qcore::Cx{r, 0};
  }
  return qcore::StateVec::from_amplitudes(std::move(amps));
}

PairedSinglets::PairedSinglets(std::size_t n) : n_(n) { FTL_ASSERT(n >= 2); }

void PairedSinglets::choose(std::vector<std::size_t>& out, util::Rng& rng) {
  out.resize(n_);
  // A singlet measured in the same basis at both ends yields perfectly
  // anti-correlated uniform bits; pairs are independent of each other.
  // Sampling those bits directly is distribution-identical (the unit tests
  // verify this against the state-vector simulator).
  std::size_t i = 0;
  for (; i + 1 < n_; i += 2) {
    const std::size_t r = rng.bernoulli(0.5) ? 1 : 0;
    out[i] = r;
    out[i + 1] = 1 - r;
  }
  if (i < n_) out[i] = rng.uniform_int(2);
}

}  // namespace ftl::ecmp
