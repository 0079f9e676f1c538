#include "lb/typed_simulator.hpp"

#include <algorithm>
#include <cmath>
#include <deque>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/assert.hpp"
#include "util/stats.hpp"

namespace ftl::lb {

namespace {

struct TypedTask {
  std::size_t type;
  long arrival_step;
};

/// One server with affinity-aware pairing: serves the head task, plus the
/// first queued task whose type co-locates with it.
class TypedServer {
 public:
  void enqueue(TypedTask t) { queue_.push_back(t); }

  std::vector<TypedTask> step(const games::AffinityGraph& graph,
                              TypedServicePolicy policy, double interference,
                              util::Rng& rng) {
    std::vector<TypedTask> served;
    if (queue_.empty()) return served;
    // Pairs-first (the Figure-4 service economics generalised): the first
    // Colocate-affine pair in FIFO order shares this step's slot; if no
    // pair exists the head runs alone.
    // Bounded scan window: real schedulers inspect a prefix of the queue,
    // and it keeps the step cost linear when queues are long. Indices (not
    // iterators) because deque::erase invalidates iterators.
    constexpr std::size_t kScanWindow = 32;
    const std::size_t window = std::min(kScanWindow, queue_.size());
    for (std::size_t i = 0; i < window && served.empty(); ++i) {
      for (std::size_t j = i + 1; j < window; ++j) {
        if (graph.at(queue_[i].type, queue_[j].type) ==
            games::Affinity::kColocate) {
          served.push_back(queue_[i]);
          served.push_back(queue_[j]);
          queue_.erase(queue_.begin() + static_cast<long>(j));
          queue_.erase(queue_.begin() + static_cast<long>(i));
          break;
        }
      }
    }
    if (served.empty() && policy == TypedServicePolicy::kPriorityPairs) {
      // Strict priority for self-pairable types: the first task whose type
      // co-locates with itself runs alone rather than yielding the slot to
      // a self-exclusive task (the Figure-4 "C before E" rule).
      const std::size_t w2 = std::min(kScanWindow, queue_.size());
      for (std::size_t k = 0; k < w2; ++k) {
        if (graph.at(queue_[k].type, queue_[k].type) ==
            games::Affinity::kColocate) {
          served.push_back(queue_[k]);
          queue_.erase(queue_.begin() + static_cast<long>(k));
          return served;
        }
      }
    }
    if (served.empty()) {
      // No pairable tasks. Noisy neighbour: an Exclusive-affine task
      // elsewhere in the queue slows the head down with probability
      // `interference`.
      const TypedTask head = queue_.front();
      bool conflicted = false;
      for (auto it = std::next(queue_.begin()); it != queue_.end(); ++it) {
        if (graph.at(head.type, it->type) == games::Affinity::kExclusive) {
          conflicted = true;
          break;
        }
      }
      if (conflicted && rng.bernoulli(interference)) return served;
      queue_.pop_front();
      served.push_back(head);
    }
    return served;
  }

  [[nodiscard]] std::size_t queue_length() const { return queue_.size(); }
  [[nodiscard]] const std::deque<TypedTask>& queue() const { return queue_; }

 private:
  std::deque<TypedTask> queue_;
};

}  // namespace

void TypedRandomStrategy::assign(const std::vector<std::size_t>& types,
                                 std::vector<std::size_t>& out,
                                 std::size_t num_servers, util::Rng& rng) {
  out.resize(types.size());
  for (auto& s : out) s = rng.uniform_int(num_servers);
}

TypedDedicatedStrategy::TypedDedicatedStrategy(
    std::vector<std::size_t> group_of, std::size_t num_groups)
    : group_of_(std::move(group_of)), num_groups_(num_groups) {
  FTL_ASSERT(num_groups_ >= 1);
  for (std::size_t g : group_of_) FTL_ASSERT(g < num_groups_);
}

void TypedDedicatedStrategy::assign(const std::vector<std::size_t>& types,
                                    std::vector<std::size_t>& out,
                                    std::size_t num_servers, util::Rng& rng) {
  out.resize(types.size());
  FTL_ASSERT(num_servers >= num_groups_);
  const std::size_t pool = num_servers / num_groups_;
  for (std::size_t b = 0; b < types.size(); ++b) {
    FTL_ASSERT(types[b] < group_of_.size());
    const std::size_t g = group_of_[types[b]];
    // Last pool absorbs the remainder servers.
    const std::size_t lo = g * pool;
    const std::size_t hi = (g + 1 == num_groups_) ? num_servers : lo + pool;
    out[b] = lo + rng.uniform_int(hi - lo);
  }
}

TypedPairedStrategy::TypedPairedStrategy(
    std::unique_ptr<correlate::TypedDecisionSource> source)
    : source_(std::move(source)) {
  FTL_ASSERT(source_ != nullptr);
}

std::string TypedPairedStrategy::name() const {
  return "typed-paired(" + source_->name() + ")";
}

void TypedPairedStrategy::assign(const std::vector<std::size_t>& types,
                                 std::vector<std::size_t>& out,
                                 std::size_t num_servers, util::Rng& rng) {
  FTL_ASSERT_MSG(types.size() % 2 == 0,
                 "typed paired strategy needs an even number of balancers");
  out.resize(types.size());
  for (std::size_t p = 0; p + 1 < types.size(); p += 2) {
    const auto [s0, s1] = rng.distinct_pair(num_servers);
    const auto [a, b] = source_->decide(types[p], types[p + 1], rng);
    out[p] = a == 0 ? s0 : s1;
    out[p + 1] = b == 0 ? s0 : s1;
  }
}

LbResult run_typed_lb_sim(const TypedLbConfig& cfg,
                          const games::AffinityGraph& graph,
                          TypedLbStrategy& strategy) {
  FTL_ASSERT(!cfg.type_probs.empty());
  FTL_ASSERT(cfg.type_probs.size() == graph.num_types());
  double total_p = 0.0;
  for (double p : cfg.type_probs) total_p += p;
  FTL_ASSERT_MSG(std::abs(total_p - 1.0) < 1e-9,
                 "type probabilities must sum to 1");

  const obs::ScopedSpan span("lb.run_typed_lb_sim", "lb");
  const obs::Labels strat_label{{"strategy", strategy.name()}};
  obs::Counter& m_arrived =
      obs::registry().counter("lb.typed.requests.arrived", strat_label);
  obs::Counter& m_served =
      obs::registry().counter("lb.typed.requests.served", strat_label);

  util::Rng rng(cfg.seed);
  util::Rng arrivals_rng = rng.split(1);
  util::Rng strategy_rng = rng.split(2);
  util::Rng service_rng = rng.split(3);
  util::Rng drift_rng = rng.split(4);
  std::vector<double> live_probs = cfg.type_probs;

  std::vector<TypedServer> servers(cfg.num_servers);
  std::vector<std::size_t> types(cfg.num_balancers);
  std::vector<std::size_t> targets;

  util::Accumulator queue_len_acc;
  util::Accumulator delay_acc;
  std::vector<double> delays;
  long long arrived = 0;
  long long served_count = 0;

  auto draw_type = [&]() {
    const double u = arrivals_rng.uniform();
    double cum = 0.0;
    for (std::size_t t = 0; t < live_probs.size(); ++t) {
      cum += live_probs[t];
      if (u < cum) return t;
    }
    return live_probs.size() - 1;
  };
  auto maybe_drift = [&](long step) {
    if (cfg.mix_drift_period <= 0 || step == 0 ||
        step % cfg.mix_drift_period != 0) {
      return;
    }
    double total = 0.0;
    for (double& p : live_probs) {
      p = drift_rng.exponential(1.0);
      total += p;
    }
    for (double& p : live_probs) p /= total;
  };

  const long total_steps = cfg.warmup_steps + cfg.measure_steps;
  for (long step = 0; step < total_steps; ++step) {
    const bool measuring = step >= cfg.warmup_steps;
    maybe_drift(step);
    for (auto& t : types) t = draw_type();
    strategy.assign(types, targets, cfg.num_servers, strategy_rng);
    for (std::size_t b = 0; b < cfg.num_balancers; ++b) {
      FTL_ASSERT(targets[b] < cfg.num_servers);
      servers[targets[b]].enqueue(TypedTask{types[b], step});
      if (measuring) {
        ++arrived;
        m_arrived.inc();
      }
    }
    for (auto& server : servers) {
      for (const TypedTask& t :
           server.step(graph, cfg.policy, cfg.interference, service_rng)) {
        if (measuring && t.arrival_step >= cfg.warmup_steps) {
          ++served_count;
          m_served.inc();
          const double d = static_cast<double>(step - t.arrival_step);
          delay_acc.add(d);
          delays.push_back(d);
        }
      }
      if (measuring) {
        queue_len_acc.add(static_cast<double>(server.queue_length()));
      }
    }
  }

  LbResult out;
  out.mean_queue_length = queue_len_acc.mean();
  out.mean_delay = delay_acc.mean();
  out.p95_delay = delays.empty() ? 0.0 : util::percentile(delays, 0.95);
  out.throughput = static_cast<double>(served_count) /
                   (static_cast<double>(cfg.measure_steps) *
                    static_cast<double>(cfg.num_servers));
  out.arrived = arrived;
  out.served = served_count;
  long long queued = 0;
  for (const auto& s : servers) {
    for (const TypedTask& t : s.queue()) {
      if (t.arrival_step >= cfg.warmup_steps) ++queued;
    }
  }
  out.still_queued = queued;
  return out;
}

}  // namespace ftl::lb
