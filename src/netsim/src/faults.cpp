#include "dip/netsim/faults.hpp"

#include <algorithm>

namespace dip::netsim {

std::string_view to_string(FaultKind k) noexcept {
  switch (k) {
    case FaultKind::kDrop: return "drop";
    case FaultKind::kDuplicate: return "duplicate";
    case FaultKind::kCorrupt: return "corrupt";
    case FaultKind::kReorder: return "reorder";
    case FaultKind::kBlackout: return "blackout";
  }
  return "unknown";
}

FaultDecision FaultStream::next(SimTime now, std::span<std::uint8_t> packet) {
  FaultDecision d;
  d.index = packets_++;
  if (!plan_.active()) return d;

  if (plan_.in_blackout(now)) {
    d.blackout = true;
    return d;
  }
  if (plan_.drop_rate > 0 && rng_.uniform() < plan_.drop_rate) {
    d.drop = true;
    return d;
  }
  if (plan_.duplicate_rate > 0 && rng_.uniform() < plan_.duplicate_rate) {
    d.duplicate = true;
  }
  if (plan_.corrupt_rate > 0 && rng_.uniform() < plan_.corrupt_rate &&
      !packet.empty()) {
    d.corrupt_bytes = static_cast<std::uint32_t>(
        1 + rng_.below(std::max<std::uint32_t>(plan_.corrupt_max_bytes, 1)));
  }
  if (plan_.reorder_rate > 0 && rng_.uniform() < plan_.reorder_rate &&
      plan_.reorder_window > 0) {
    d.extra_delay = 1 + rng_.below(plan_.reorder_window);
  }
  for (std::uint32_t k = 0; k < d.corrupt_bytes; ++k) {
    packet[rng_.below(packet.size())] ^= static_cast<std::uint8_t>(1 + rng_.below(255));
  }
  return d;
}

}  // namespace dip::netsim
