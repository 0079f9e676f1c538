#include "correlate/decision_source.hpp"

#include <cmath>

#include "qnet/decoherence.hpp"
#include "util/assert.hpp"

namespace ftl::correlate {

namespace {
/// Target of the flipped game: a XOR b must equal NOT(x AND y).
int flipped_target(int x, int y) { return (x == 1 && y == 1) ? 0 : 1; }
}  // namespace

std::pair<int, int> IndependentRandomSource::decide(int /*x*/, int /*y*/,
                                                    util::Rng& rng) {
  return {rng.bernoulli(0.5) ? 1 : 0, rng.bernoulli(0.5) ? 1 : 0};
}

double IndependentRandomSource::win_probability(int /*x*/, int /*y*/) const {
  return 0.5;
}

std::pair<int, int> ClassicalChshSource::decide(int x, int y,
                                                util::Rng& rng) {
  // Deterministic core: a = 0, b = 1 satisfies a^b = 1 = NOT(x AND y)
  // whenever x AND y = 0, i.e. on 3 of 4 input pairs. The shared coin r is
  // XORed into both outputs: correlation is unchanged, marginals uniform.
  const int r = rng.bernoulli(0.5) ? 1 : 0;
  (void)x;
  (void)y;
  return {r, 1 ^ r};
}

double ClassicalChshSource::win_probability(int x, int y) const {
  return flipped_target(x, y) == 1 ? 1.0 : 0.0;
}

ChshSource::ChshSource(double visibility) : visibility_(visibility) {
  FTL_ASSERT(visibility >= 0.0 && visibility <= 1.0);
  // A fresh pair: both halves at age 0, so the memory's T1/T2 never act.
  const qnet::StoredPair pair(visibility, 0.0, 0.0, 1.0, 1.0);
  double joint[2][2][2][2];
  for (int x = 0; x < 2; ++x) {
    for (int y = 0; y < 2; ++y) {
      for (int a = 0; a < 2; ++a) {
        for (int b = 0; b < 2; ++b) joint[x][y][a][b] = pair.joint(x, y, a, b);
      }
    }
  }
  table_ = OutcomeTable::from_joint(joint);
}

std::pair<int, int> ChshSource::decide(int x, int y, util::Rng& rng) {
  FTL_ASSERT((x == 0 || x == 1) && (y == 0 || y == 1));
  // Inverse-CDF sample from the cached Born distribution; the table's
  // branchless lookup maps the same uniform to the same outcome the old
  // explicit scan did.
  return table_.sample(x, y, rng);
}

std::string ChshSource::name() const {
  return visibility_ >= 1.0 ? "quantum-chsh"
                            : "quantum-chsh(v=" + std::to_string(visibility_) +
                                  ")";
}

double ChshSource::win_probability(int x, int y) const {
  // With the optimal angles every input pair wins with the same
  // probability: (1 + v cos(pi/4)) / 2 = (1 + v/sqrt(2)) / 2.
  (void)x;
  (void)y;
  return 0.5 * (1.0 + visibility_ / std::sqrt(2.0));
}

MixedClassicalSource::MixedClassicalSource(double p_same) : p_same_(p_same) {
  FTL_ASSERT(p_same >= 0.0 && p_same <= 1.0);
}

std::pair<int, int> MixedClassicalSource::decide(int /*x*/, int /*y*/,
                                                 util::Rng& rng) {
  const int r = rng.bernoulli(0.5) ? 1 : 0;
  const int diff = rng.bernoulli(p_same_) ? 0 : 1;
  return {r, r ^ diff};
}

std::string MixedClassicalSource::name() const {
  return "classical-mixed(p=" + std::to_string(p_same_) + ")";
}

double MixedClassicalSource::win_probability(int x, int y) const {
  // Wants same outputs iff both inputs are 1 (the flipped game).
  return (x == 1 && y == 1) ? p_same_ : 1.0 - p_same_;
}

std::pair<int, int> OmniscientOracleSource::decide(int x, int y,
                                                   util::Rng& rng) {
  const int r = rng.bernoulli(0.5) ? 1 : 0;
  return {r, r ^ flipped_target(x, y)};
}

double OmniscientOracleSource::win_probability(int /*x*/, int /*y*/) const {
  return 1.0;
}

std::unique_ptr<PairedDecisionSource> make_source(const std::string& kind,
                                                  double visibility) {
  if (kind == "independent") return std::make_unique<IndependentRandomSource>();
  if (kind == "classical-chsh") return std::make_unique<ClassicalChshSource>();
  if (kind == "quantum-chsh") return std::make_unique<ChshSource>(visibility);
  if (kind == "omniscient") return std::make_unique<OmniscientOracleSource>();
  FTL_ASSERT_MSG(false, "unknown decision source kind");
  return nullptr;
}

}  // namespace ftl::correlate
