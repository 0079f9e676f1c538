#include "lb/server.hpp"

#include "util/assert.hpp"

namespace ftl::lb {

const char* to_string(ServicePolicy p) {
  switch (p) {
    case ServicePolicy::kPaperCFirst:
      return "paper-c-first";
    case ServicePolicy::kFifoPair:
      return "fifo-pair";
    case ServicePolicy::kEFirst:
      return "e-first";
  }
  return "?";
}

void ServerArray::Lane::pop() {
  ++head;
  if (head == slots.size()) {
    slots.clear();
    head = 0;
  } else if (head >= 32 && head * 2 >= slots.size()) {
    // Amortised compaction: we erase `head` elements only after at least as
    // many pops as live slots, so the move cost is O(1) per pop.
    slots.erase(slots.begin(), slots.begin() + static_cast<long>(head));
    head = 0;
  }
}

ServerArray::ServerArray(std::size_t num_servers)
    : c_lanes_(num_servers), e_lanes_(num_servers), next_seq_(num_servers, 0) {
  FTL_ASSERT(num_servers >= 1);
}

void ServerArray::enqueue(std::size_t server, TaskType type,
                          std::uint32_t balancer, std::int32_t arrival_step) {
  lane(server, type).slots.push_back(
      Slot{arrival_step, balancer, next_seq_[server]++});
}

std::size_t ServerArray::emit(Lane& l, TaskType t, Request out[2],
                              std::size_t n) {
  const Slot& s = l.front();
  out[n] = Request{t, s.balancer, s.arrival_step};
  l.pop();
  return n + 1;
}

std::size_t ServerArray::step(std::size_t server, ServicePolicy policy,
                              Request out[2]) {
  Lane& c = c_lanes_[server];
  Lane& e = e_lanes_[server];
  std::size_t n = 0;
  switch (policy) {
    case ServicePolicy::kPaperCFirst: {
      // Up to two C requests run together; E runs alone and only when no C
      // is waiting.
      if (c.pending() > 0) {
        n = emit(c, TaskType::kC, out, n);
        if (c.pending() > 0) n = emit(c, TaskType::kC, out, n);
      } else if (e.pending() > 0) {
        n = emit(e, TaskType::kE, out, n);
      }
      break;
    }
    case ServicePolicy::kFifoPair: {
      // The true FIFO head is whichever lane front arrived first.
      const bool head_is_c =
          c.pending() > 0 &&
          (e.pending() == 0 || c.front().seq < e.front().seq);
      if (head_is_c) {
        n = emit(c, TaskType::kC, out, n);
        if (c.pending() > 0) n = emit(c, TaskType::kC, out, n);
      } else if (e.pending() > 0) {
        n = emit(e, TaskType::kE, out, n);
      }
      break;
    }
    case ServicePolicy::kEFirst: {
      if (e.pending() > 0) {
        n = emit(e, TaskType::kE, out, n);
      } else if (c.pending() > 0) {
        n = emit(c, TaskType::kC, out, n);
        if (c.pending() > 0) n = emit(c, TaskType::kC, out, n);
      }
      break;
    }
  }
  return n;
}

}  // namespace ftl::lb
