// Conservation and sanity invariants for the load-balancing simulators.
//
// Both run_lb_sim and run_typed_lb_sim count every measured arrival, every
// measured service completion, and every measured task still queued at the
// end. A correct simulator loses nothing: arrived == served + still_queued,
// exactly, for every config — the queue-conservation law the property
// suites check on random workloads.
#pragma once

#include <string>

#include "lb/simulator.hpp"

namespace ftl::lb {

/// Empty when all conservation and sanity laws hold; otherwise names the
/// first violated law with its numbers (usable directly as a property-test
/// failure note).
[[nodiscard]] std::string conservation_violation(const LbResult& r);

}  // namespace ftl::lb
