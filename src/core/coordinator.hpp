// Coordinator: fleet-level entry point of the library.
//
// A Coordinator owns a set of CorrelatedPairs (one per pair of cooperating
// nodes), hands out endpoint handles, and answers the provisioning
// question: given an entanglement source, fiber plant, and request rate, is
// the quantum backend actually better than the classical one end-to-end?
#pragma once

#include <memory>
#include <vector>

#include "core/correlated_pair.hpp"
#include "qnet/broker.hpp"

namespace ftl::core {

/// A node-local handle: the only thing application code needs.
class Endpoint {
 public:
  Endpoint(CorrelatedPair* pair, int side) : pair_(pair), side_(side) {}

  /// Decide between alternative 0 and 1 given this node's local input.
  [[nodiscard]] int decide(int local_input) {
    return pair_->decide(side_, local_input);
  }

 private:
  CorrelatedPair* pair_;
  int side_;
};

struct ProvisioningReport {
  /// Fraction of rounds that will find a live entangled pair.
  double pair_hit_fraction = 0.0;
  /// Mean storage age of consumed pairs, seconds.
  double mean_pair_age_s = 0.0;
  /// End-to-end expected win probability of the flipped CHSH condition
  /// (quantum rounds at their decohered quality, misses at classical 3/4);
  /// NaN when no request arrived in the simulated window.
  double effective_win_probability = 0.0;
  /// The classical baseline it must beat.
  double classical_win_probability = 0.75;
  /// False when effective_win_probability is NaN.
  [[nodiscard]] bool quantum_worthwhile() const {
    return effective_win_probability > classical_win_probability + 1e-9;
  }
};

class Coordinator {
 public:
  explicit Coordinator(PairConfig cfg) : cfg_(std::move(cfg)) {}

  /// Creates a correlated pair and returns its two endpoint handles. The
  /// Coordinator keeps ownership; handles stay valid for its lifetime.
  [[nodiscard]] std::pair<Endpoint, Endpoint> make_pair();

  /// Per-pair statistics, aggregated.
  [[nodiscard]] PairStats aggregate_stats() const;

  /// Answers "should I deploy the quantum backend?" for a given supply
  /// model and request rate, by running the qnet broker simulation.
  [[nodiscard]] static ProvisioningReport provision(
      const qnet::QnetConfig& supply, double source_visibility,
      double request_rate_hz, double sim_duration_s, std::uint64_t seed);

 private:
  PairConfig cfg_;
  std::vector<std::unique_ptr<CorrelatedPair>> pairs_;
};

}  // namespace ftl::core
