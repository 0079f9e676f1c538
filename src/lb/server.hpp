// Backend servers with FIFO queues and the paper's batched-C service.
//
// Storage is struct-of-arrays: ServerArray keeps one C lane and one E lane
// per server (flat Slot vectors with head cursors) plus a per-server FIFO
// sequence column. Because every service policy only ever needs "the first
// queued request of type t", a lane pop replaces the old linear deque scan
// — service is O(1) per request instead of O(queue length), which is what
// lets the sharded Fig-4 engine run 10^5–10^6 servers. kFifoPair recovers
// strict arrival order by comparing the lane heads' sequence numbers.
#pragma once

#include <cstdint>
#include <vector>

#include "lb/types.hpp"

namespace ftl::lb {

/// The state of the whole cluster's queues, indexed by server.
class ServerArray {
 public:
  /// One queued request, packed for the lanes (12 bytes vs 24 for Request).
  struct Slot {
    std::int32_t arrival_step = 0;
    std::uint32_t balancer = 0;
    /// Per-server arrival sequence across both lanes; lower = arrived
    /// earlier. Lets kFifoPair find the true FIFO head across lanes.
    std::uint32_t seq = 0;
  };

  explicit ServerArray(std::size_t num_servers);

  [[nodiscard]] std::size_t size() const { return c_lanes_.size(); }

  void enqueue(std::size_t server, TaskType type, std::uint32_t balancer,
               std::int32_t arrival_step);

  /// Runs one timestep of service for `server` under `policy`; writes the
  /// served requests (in service order, at most 2) into `out` and returns
  /// the count. Identical service semantics to the original deque scan.
  std::size_t step(std::size_t server, ServicePolicy policy, Request out[2]);

  [[nodiscard]] std::size_t queue_length(std::size_t server) const {
    return c_lanes_[server].pending() + e_lanes_[server].pending();
  }
  [[nodiscard]] std::size_t queued_of(std::size_t server, TaskType t) const {
    return lane(server, t).pending();
  }

  /// Visits every queued request of `server` as (type, slot). Lane order,
  /// not arrival order — fine for counting/conservation checks.
  template <typename Fn>
  void for_each_queued(std::size_t server, Fn&& fn) const {
    const Lane& c = c_lanes_[server];
    for (std::size_t i = c.head; i < c.slots.size(); ++i) {
      fn(TaskType::kC, c.slots[i]);
    }
    const Lane& e = e_lanes_[server];
    for (std::size_t i = e.head; i < e.slots.size(); ++i) {
      fn(TaskType::kE, e.slots[i]);
    }
  }

 private:
  /// A per-server FIFO of one task type: a flat vector plus a head cursor,
  /// compacted amortised-O(1) so memory stays proportional to the queue.
  struct Lane {
    std::vector<Slot> slots;
    std::size_t head = 0;

    [[nodiscard]] std::size_t pending() const { return slots.size() - head; }
    [[nodiscard]] const Slot& front() const { return slots[head]; }
    void pop();
  };

  [[nodiscard]] Lane& lane(std::size_t server, TaskType t) {
    return t == TaskType::kC ? c_lanes_[server] : e_lanes_[server];
  }
  [[nodiscard]] const Lane& lane(std::size_t server, TaskType t) const {
    return t == TaskType::kC ? c_lanes_[server] : e_lanes_[server];
  }

  /// Pops the front of `l` into `out[n]` as a Request of type `t`.
  static std::size_t emit(Lane& l, TaskType t, Request out[2], std::size_t n);

  std::vector<Lane> c_lanes_;
  std::vector<Lane> e_lanes_;
  std::vector<std::uint32_t> next_seq_;
};

}  // namespace ftl::lb
