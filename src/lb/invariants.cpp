#include "lb/invariants.hpp"

#include <sstream>

namespace ftl::lb {

std::string conservation_violation(const LbResult& r) {
  std::ostringstream os;
  if (r.arrived < 0 || r.served < 0 || r.still_queued < 0) {
    os << "negative counter: arrived=" << r.arrived << " served=" << r.served
       << " still_queued=" << r.still_queued;
    return os.str();
  }
  if (r.arrived != r.served + r.still_queued) {
    os << "requests lost or invented: arrived=" << r.arrived
       << " != served=" << r.served << " + still_queued=" << r.still_queued;
    return os.str();
  }
  if (r.mean_queue_length < 0.0) {
    os << "negative mean queue length " << r.mean_queue_length;
    return os.str();
  }
  if (r.mean_delay < 0.0 || r.p95_delay < 0.0) {
    os << "negative delay: mean=" << r.mean_delay << " p95=" << r.p95_delay;
    return os.str();
  }
  if (r.mean_delay > r.p95_delay && r.p95_delay > 0.0 &&
      r.mean_delay / r.p95_delay > 20.0) {
    // Mean above p95 is possible for heavy tails, but a 20x gap means the
    // percentile and the mean disagree about which distribution they saw.
    os << "mean delay " << r.mean_delay << " implausibly above p95 "
       << r.p95_delay;
    return os.str();
  }
  if (r.throughput < 0.0) {
    os << "negative throughput " << r.throughput;
    return os.str();
  }
  return "";
}

}  // namespace ftl::lb
