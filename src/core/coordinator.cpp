#include "core/coordinator.hpp"

namespace ftl::core {

std::pair<Endpoint, Endpoint> Coordinator::make_pair() {
  PairConfig cfg = cfg_;
  cfg.seed = cfg_.seed + pairs_.size() * 0x9e3779b97f4a7c15ULL;
  pairs_.push_back(std::make_unique<CorrelatedPair>(cfg));
  CorrelatedPair* p = pairs_.back().get();
  return {Endpoint(p, 0), Endpoint(p, 1)};
}

PairStats Coordinator::aggregate_stats() const {
  PairStats total;
  for (const auto& p : pairs_) {
    const PairStats& s = p->stats();
    total.rounds += s.rounds;
    total.quantum_rounds += s.quantum_rounds;
    total.fallback_rounds += s.fallback_rounds;
    total.wins += s.wins;
  }
  return total;
}

ProvisioningReport Coordinator::provision(const qnet::QnetConfig& supply,
                                          double source_visibility,
                                          double request_rate_hz,
                                          double sim_duration_s,
                                          std::uint64_t seed) {
  qnet::QnetConfig cfg = supply;
  cfg.source_visibility = source_visibility;
  util::Rng rng(seed);
  const qnet::BrokerStats stats =
      qnet::simulate_pair_supply(cfg, request_rate_hz, sim_duration_s, rng);
  ProvisioningReport report;
  report.pair_hit_fraction = stats.hit_fraction();
  report.mean_pair_age_s = stats.mean_consumed_age_s;
  report.effective_win_probability = stats.mean_chsh_win;
  return report;
}

}  // namespace ftl::core
