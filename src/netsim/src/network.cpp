#include "dip/netsim/network.hpp"

#include <cassert>

namespace dip::netsim {

NodeId Network::add_node(Node& node) {
  const auto id = static_cast<NodeId>(nodes_.size());
  node.id_ = id;
  node.network_ = this;
  nodes_.push_back(&node);
  faces_.emplace_back();
  return id;
}

std::pair<FaceId, FaceId> Network::connect(Node& a, Node& b, LinkParams params) {
  assert(a.network_ == this && b.network_ == this);
  auto& fa = faces_[a.id()];
  auto& fb = faces_[b.id()];
  const auto face_a = static_cast<FaceId>(fa.size());
  const auto face_b = static_cast<FaceId>(fb.size());
  const auto half_to = [&](NodeId peer, FaceId peer_face) {
    const std::uint64_t ordinal = next_link_ordinal_++;
    return HalfLink{peer, peer_face, params, 0, ordinal,
                    FaultStream(params.faults, fault_seed_, ordinal)};
  };
  fa.push_back(half_to(b.id(), face_b));
  fb.push_back(half_to(a.id(), face_a));
  return {face_a, face_b};
}

void Network::set_fault_seed(std::uint64_t seed) {
  fault_seed_ = seed;
  for (auto& node_faces : faces_) {
    for (HalfLink& h : node_faces) {
      h.faults = FaultStream(h.params.faults, seed, h.ordinal);
    }
  }
}

std::optional<std::pair<NodeId, FaceId>> Network::peer_of(const Node& node,
                                                          FaceId face) const {
  const HalfLink* h = half(node.id(), face);
  if (h == nullptr) return std::nullopt;
  return std::make_pair(h->peer_node, h->peer_face);
}

void Network::record_fault(FaultKind kind, NodeId node, FaceId face,
                           std::uint64_t packet_index, std::uint64_t detail) {
  ++fault_events_;
  ++faults_by_kind_[static_cast<std::size_t>(kind) % faults_by_kind_.size()];
  if (fault_trace_.size() < kFaultTraceLimit) {
    fault_trace_.push_back({kind, node, face, packet_index, loop_.now(), detail});
  }
}

void Network::send(const Node& from, FaceId face, PacketBytes packet) {
  if (half(from.id(), face) == nullptr) {
    ++stats_.dead_faced;
    return;
  }
  HalfLink* link = &faces_[from.id()][face];
  ++stats_.transmitted;
  stats_.bytes += packet.size();

  // The half-link's fault stream decides; this records what it decided.
  // Corruption mutates the bytes now but is *counted* only if the packet
  // actually delivers — a corrupted-then-queue-dropped packet lands in
  // exactly one ledger bucket (queue_dropped).
  const NodeId from_node = from.id();
  const FaultDecision d = link->faults.next(loop_.now(), packet);
  if (d.blackout) {
    ++stats_.blackholed;
    record_fault(FaultKind::kBlackout, from_node, face, d.index, 0);
    return;
  }
  if (d.drop) {
    ++stats_.lost;
    record_fault(FaultKind::kDrop, from_node, face, d.index, 0);
    return;
  }
  if (d.corrupt_bytes != 0) {
    record_fault(FaultKind::kCorrupt, from_node, face, d.index, d.corrupt_bytes);
  }
  if (d.duplicate) record_fault(FaultKind::kDuplicate, from_node, face, d.index, 0);
  if (d.extra_delay != 0) {
    record_fault(FaultKind::kReorder, from_node, face, d.index, d.extra_delay);
  }

  // Serialization: the face transmits packets back to back, in order.
  const SimDuration tx_time =
      link->params.bandwidth_bps == 0
          ? 0
          : (packet.size() * 8 * kSecond) / link->params.bandwidth_bps;
  const SimTime start = std::max(loop_.now(), link->busy_until);
  if (link->params.max_queue_delay != 0 &&
      start - loop_.now() > link->params.max_queue_delay) {
    ++stats_.queue_dropped;  // finite buffer: tail drop
    return;
  }
  const SimTime arrive = start + tx_time + link->params.latency + d.extra_delay;
  link->busy_until = start + tx_time;

  const auto deliver_at = [this, from_node, to_node = link->peer_node,
                           to_face = link->peer_face,
                           corrupted = d.corrupt_bytes != 0](SimTime at, PacketBytes bytes) {
    loop_.schedule_at(at, [=, this, bytes = std::move(bytes)]() mutable {
      ++stats_.delivered;
      if (corrupted) ++stats_.corrupted;
      if (tap_) tap_(from_node, to_node, to_face, bytes, loop_.now());
      nodes_[to_node]->on_packet(to_face, std::move(bytes), loop_.now());
    });
  };
  if (d.duplicate) {
    // The copy rides back to back behind the original: it occupies the link
    // for another tx_time and skips the queue check the original passed.
    ++stats_.duplicated;
    link->busy_until += tx_time;
    deliver_at(arrive + tx_time, packet);
  }
  deliver_at(arrive, std::move(packet));
}

void Network::write_stats(telemetry::StatsWriter& w) const {
  w.counter("dip_net_transmitted_total", {}, stats_.transmitted);
  w.counter("dip_net_delivered_total", {}, stats_.delivered);
  w.counter("dip_net_lost_total", {}, stats_.lost);
  w.counter("dip_net_queue_dropped_total", {}, stats_.queue_dropped);
  w.counter("dip_net_dead_faced_total", {}, stats_.dead_faced);
  w.counter("dip_net_bytes_total", {}, stats_.bytes);
  w.counter("dip_net_duplicated_total", {}, stats_.duplicated);
  w.counter("dip_net_corrupted_total", {}, stats_.corrupted);
  w.counter("dip_net_blackholed_total", {}, stats_.blackholed);
  w.counter("dip_net_fault_events_total", {}, fault_events_);
  for (std::size_t k = 0; k < faults_by_kind_.size(); ++k) {
    if (faults_by_kind_[k] == 0) continue;
    const telemetry::Label labels[] = {
        {"kind", to_string(static_cast<FaultKind>(k))}};
    w.counter("dip_net_faults_total", labels, faults_by_kind_[k]);
  }
}

void Network::register_stats(telemetry::StatsRegistry& registry) const {
  registry.add("network", [this](telemetry::StatsWriter& w) { write_stats(w); });
}

}  // namespace dip::netsim
