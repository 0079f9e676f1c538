// Load-balancer assignment strategies (§4.1).
//
// Each timestep every balancer gets a batch of requests (batch size 1 in
// the paper's simulation) and must pick a server for each. Honest
// distributed strategies use only the balancer's local inputs plus
// pre-shared randomness or entanglement — never another balancer's input.
// The ServerArray argument exposes the (sub-)cluster's start-of-step queues
// for the informed baselines (power-of-two choices); honest strategies
// ignore it.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "correlate/decision_source.hpp"
#include "lb/server.hpp"
#include "lb/types.hpp"
#include "util/rng.hpp"

namespace ftl::lb {

/// One step's requests in flat arrays. Balancer b sent `batch` requests,
/// types[b * batch + k] for k < batch, if active[b]; otherwise it sent
/// none. Request slot i is routed to targets[i].
struct StepArrivals {
  std::size_t batch = 1;
  std::vector<std::uint8_t> active;
  std::vector<TaskType> types;

  [[nodiscard]] std::size_t num_balancers() const { return active.size(); }

  /// Calls fn(b, i) for every request slot i of every active balancer b,
  /// in balancer order.
  template <typename Fn>
  void for_each_request(Fn&& fn) const {
    for (std::size_t b = 0; b < active.size(); ++b) {
      if (active[b] == 0) continue;
      for (std::size_t i = b * batch; i < (b + 1) * batch; ++i) fn(b, i);
    }
  }
};

/// Flipped-CHSH rounds played by one assign() call (paired strategies).
struct Rounds {
  long long won = 0;
  long long lost = 0;
};

class LbStrategy {
 public:
  virtual ~LbStrategy() = default;

  [[nodiscard]] virtual std::string name() const = 0;

  /// Writes targets[i] for every request slot i of an active balancer.
  /// `servers` holds the queues before this step's requests land (stale by
  /// the time they do — as in any real system).
  virtual Rounds assign(const StepArrivals& in,
                        std::span<std::uint32_t> targets,
                        const ServerArray& servers, util::Rng& rng) = 0;

  /// The source this strategy plays its rounds through, if any.
  [[nodiscard]] virtual const correlate::PairedDecisionSource* source() const {
    return nullptr;
  }
};

/// Uniformly random server per request (the paper's classical baseline).
class RandomStrategy final : public LbStrategy {
 public:
  [[nodiscard]] std::string name() const override { return "random"; }
  Rounds assign(const StepArrivals& in, std::span<std::uint32_t> targets,
                const ServerArray& servers, util::Rng& rng) override;
};

/// Independent per-balancer round robin from a random offset.
class RoundRobinStrategy final : public LbStrategy {
 public:
  [[nodiscard]] std::string name() const override { return "round-robin"; }
  Rounds assign(const StepArrivals& in, std::span<std::uint32_t> targets,
                const ServerArray& servers, util::Rng& rng) override;

 private:
  std::vector<std::size_t> next_;
};

/// Power of two choices [44]: probe two random servers, pick the shorter
/// queue (as of the start of the step).
class PowerOfTwoStrategy final : public LbStrategy {
 public:
  [[nodiscard]] std::string name() const override { return "po2"; }
  Rounds assign(const StepArrivals& in, std::span<std::uint32_t> targets,
                const ServerArray& servers, util::Rng& rng) override;
};

/// The paper's quantum scheme (and its classical/omniscient ablations):
/// balancers are paired; each pair draws two distinct candidate servers per
/// step from shared randomness and plays the flipped CHSH game through a
/// correlate::PairedDecisionSource — both type-C => same server, otherwise
/// different servers (with the source's win probability).
/// Requires an even number of balancers and batch size 1.
class PairedStrategy final : public LbStrategy {
 public:
  explicit PairedStrategy(std::unique_ptr<correlate::PairedDecisionSource> src);

  [[nodiscard]] std::string name() const override;
  Rounds assign(const StepArrivals& in, std::span<std::uint32_t> targets,
                const ServerArray& servers, util::Rng& rng) override;
  [[nodiscard]] const correlate::PairedDecisionSource* source() const override {
    return source_.get();
  }

 private:
  std::unique_ptr<correlate::PairedDecisionSource> source_;
};

/// §4.1 caveat baseline: a fixed fraction of servers is dedicated to C
/// tasks; C goes to a random dedicated server, E to a random other server.
class DedicatedServersStrategy final : public LbStrategy {
 public:
  explicit DedicatedServersStrategy(double c_fraction);

  [[nodiscard]] std::string name() const override;
  Rounds assign(const StepArrivals& in, std::span<std::uint32_t> targets,
                const ServerArray& servers, util::Rng& rng) override;

 private:
  double c_fraction_;
};

/// §4.1 caveat baseline for multi-request batches: each balancer sends all
/// of this step's C tasks to one random server and scatters E tasks.
class LocalBatchingStrategy final : public LbStrategy {
 public:
  [[nodiscard]] std::string name() const override { return "local-batching"; }
  Rounds assign(const StepArrivals& in, std::span<std::uint32_t> targets,
                const ServerArray& servers, util::Rng& rng) override;
};

/// "random" is RandomStrategy; any other `source` is a PairedStrategy over
/// correlate::make_source(source, visibility).
[[nodiscard]] std::unique_ptr<LbStrategy> make_strategy(
    const std::string& source, double visibility = 1.0);

}  // namespace ftl::lb
