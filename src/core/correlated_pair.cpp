#include "core/correlated_pair.hpp"

#include <cmath>

#include "util/assert.hpp"

namespace ftl::core {

const char* to_string(Backend b) {
  switch (b) {
    case Backend::kIndependent:
      return "independent";
    case Backend::kClassicalShared:
      return "classical-shared";
    case Backend::kQuantum:
      return "quantum";
    case Backend::kOmniscient:
      return "omniscient";
  }
  return "?";
}

CorrelatedPair::CorrelatedPair(const PairConfig& cfg)
    : cfg_(cfg),
      rng_(cfg.seed),
      // A fresh pair: at age 0, T1 and T2 play no part.
      pair_(cfg.visibility, 0.0, 0.0, /*t1_s=*/1.0, /*t2_s=*/1.0) {
  FTL_ASSERT(cfg.visibility >= 0.0 && cfg.visibility <= 1.0);
  FTL_ASSERT(cfg.detector_efficiency >= 0.0 &&
             cfg.detector_efficiency <= 1.0);
  if (cfg_.supply) {
    FTL_ASSERT(cfg_.round_rate_hz > 0.0);
    // The storage limit uses this pair's own visibility: never consume a
    // pair that has decohered below the classical strategy's value.
    pool_.emplace(*cfg_.supply,
                  qnet::storage_limit_s(*cfg_.supply, cfg_.visibility), rng_);
  }
  begin_round();
}

void CorrelatedPair::begin_round() {
  decided_[0] = decided_[1] = false;
  measured_[0] = measured_[1] = false;
  shared_bit_ = rng_.bernoulli(0.5) ? 1 : 0;

  if (cfg_.backend != Backend::kQuantum) {
    round_is_quantum_ = false;
    return;
  }

  if (pool_) {
    // Advance physical time to this round, resolve every pair that has
    // reached the QNICs by then, and play the round on the freshest one.
    sim_time_s_ += rng_.exponential(cfg_.round_rate_hz);
    pool_->produce_until(sim_time_s_, rng_);
    const std::optional<double> age_s = pool_->take_freshest(sim_time_s_);
    if (!age_s) {
      round_is_quantum_ = false;  // nothing usable: classical fallback
      return;
    }
    const qnet::QnetConfig& q = *cfg_.supply;
    pair_ = qnet::StoredPair(cfg_.visibility, *age_s, *age_s, q.memory_t1_s,
                             q.memory_t2_s);
  }
  round_is_quantum_ = true;
}

int CorrelatedPair::decide(int endpoint, int input_bit) {
  FTL_ASSERT(endpoint == 0 || endpoint == 1);
  FTL_ASSERT(input_bit == 0 || input_bit == 1);
  FTL_ASSERT_MSG(!decided_[endpoint],
                 "endpoint already decided in this round");
  inputs_[endpoint] = input_bit;

  int out = 0;
  if (round_is_quantum_ && rng_.bernoulli(cfg_.detector_efficiency)) {
    // Honest local measurement on this endpoint's half of the pair.
    const int partner = 1 - endpoint;
    const double p1 =
        measured_[partner]
            ? pair_.conditional_one(endpoint, input_bit, inputs_[partner],
                                    outputs_[partner])
            : pair_.marginal_one(endpoint, input_bit);
    out = rng_.uniform() < p1 ? 1 : 0;
    measured_[endpoint] = true;
  } else if (round_is_quantum_) {
    // Detector failure: this endpoint falls back to the shared bit; the
    // partner's measurement is now uncorrelated with it.
    out = endpoint == 0 ? shared_bit_ : (1 ^ shared_bit_);
  } else {
    switch (cfg_.backend) {
      case Backend::kIndependent:
        out = rng_.bernoulli(0.5) ? 1 : 0;
        break;
      case Backend::kOmniscient: {
        // Testbed cheat: the *second* caller can see both inputs.
        const bool other_decided = decided_[1 - endpoint];
        if (!other_decided) {
          out = shared_bit_;
        } else {
          const int target =
              (inputs_[0] == 1 && inputs_[1] == 1) ? 0 : 1;
          out = shared_bit_ ^ target;
        }
        break;
      }
      case Backend::kClassicalShared:
      case Backend::kQuantum:  // quantum backend falling back this round
        out = endpoint == 0 ? shared_bit_ : (1 ^ shared_bit_);
        break;
    }
  }

  outputs_[endpoint] = out;
  decided_[endpoint] = true;
  if (decided_[0] && decided_[1]) finish_round();
  return out;
}

void CorrelatedPair::finish_round() {
  ++stats_.rounds;
  if (round_is_quantum_) {
    ++stats_.quantum_rounds;
  } else if (cfg_.backend == Backend::kQuantum) {
    ++stats_.fallback_rounds;
  }
  const int target = (inputs_[0] == 1 && inputs_[1] == 1) ? 0 : 1;
  if ((outputs_[0] ^ outputs_[1]) == target) ++stats_.wins;
  begin_round();
}

double CorrelatedPair::expected_win_probability() const {
  switch (cfg_.backend) {
    case Backend::kIndependent:
      return 0.5;
    case Backend::kClassicalShared:
      return 0.75;
    case Backend::kOmniscient:
      return 1.0;
    case Backend::kQuantum:
      return 0.5 * (1.0 + cfg_.visibility / std::sqrt(2.0));
  }
  return 0.0;
}

}  // namespace ftl::core
