#include "dip/dtn/mesh_dtn.hpp"

#include "dip/mesh/control.hpp"
#include "dip/netsim/dip_node.hpp"

namespace dip::dtn {

std::shared_ptr<core::OpRegistry> MeshCustodyFleet::make_registry() {
  auto registry = netsim::make_default_registry();
  add_custody_modules(*registry);
  return registry;
}

MeshCustodyFleet::MeshCustodyFleet(mesh::MeshNet& mesh, Config config)
    : mesh_(mesh), config_(config) {
  agents_.reserve(mesh_.size());
  for (std::size_t i = 0; i < mesh_.size(); ++i) {
    mesh::MeshRouter& r = mesh_.router(i);
    r.env().custody_key = config_.custody_key;
    r.env().accept_custody = true;
    mesh::MeshEventLoop& loop = mesh_.loop();
    CustodyAgent::Substrate substrate{
        .send = [&r](core::FaceId face, std::span<const std::uint8_t> packet) {
          r.transmit(face, packet);
        },
        .schedule = [&loop](SimDuration delay, std::function<void()> fn) {
          return loop.schedule_in(delay, std::move(fn));
        },
        .cancel = [&loop](std::uint64_t timer) { (void)loop.cancel_timer(timer); },
        .now = [&loop] { return loop.now_ns(); },
        // Deferred: never re-enter a router's process path from inside its
        // own verdict handling. The ACK rides the routed fabric like any
        // packet.
        .send_ack = [this, i](core::FaceId, std::vector<std::uint8_t> ack) {
          mesh_.loop().schedule_in(0, [this, i, bytes = std::move(ack)] {
            mesh_.router(i).inject(bytes, mesh_.local_face_of(i));
          });
        }};
    agents_.push_back(std::make_unique<CustodyAgent>(r.env(), config_, std::move(substrate)));
    // Local delivery is terminal: the delivery handler ACKs for itself.
    r.set_forward_tap([this, i](core::FaceId ingress, core::FaceId egress,
                                std::span<const std::uint8_t> packet) {
      return agents_[i]->on_forward(ingress, egress, packet,
                                    egress != mesh_.local_face_of(i));
    });
  }
  mesh_.set_delivery([this](std::size_t i, std::span<const std::uint8_t> packet,
                            std::uint64_t now) { on_delivery(i, packet, now); });
}

std::uint32_t MeshCustodyFleet::send(std::size_t src, std::size_t dst,
                                     std::span<const std::uint8_t> payload) {
  const std::uint32_t bundle = next_bundle_++;
  const std::size_t per = config_.frag_payload == 0 ? 1 : config_.frag_payload;
  const std::size_t total = payload.empty() ? 1 : (payload.size() + per - 1) / per;
  bundle_times_[bundle] = {mesh_.loop().now_ns(), 0};

  for (std::size_t f = 0; f < total; ++f) {
    FragInfo frag;
    frag.index = static_cast<std::uint16_t>(f);
    frag.total = static_cast<std::uint16_t>(total);
    frag.bundle_id = bundle;
    const std::size_t off = std::min(f * per, payload.size());
    // The source router is the initial custodian.
    mesh::PacketBytes packet = make_fragment_packet(
        mesh::addr_of(node_id(dst)), mesh::addr_of(node_id(src)), node_id(src), frag,
        payload.subspan(off, std::min(per, payload.size() - off)), config_.custody_key,
        mesh_.router(src).env().mac_kind);
    if (packet.empty()) continue;
    offer(src, std::move(packet), 0);
  }
  return bundle;
}

void MeshCustodyFleet::offer(std::size_t src, mesh::PacketBytes packet,
                             std::uint32_t attempt) {
  // The source router accepts custody of its own injection: the forward
  // tap commits the fragment before it ever touches a wire.
  const std::uint64_t refused_before = agents_[src]->custody_drops();
  mesh_.router(src).inject(packet, mesh_.local_face_of(src));
  if (agents_[src]->custody_drops() == refused_before ||
      attempt >= config_.limits.max_retries) {
    return;
  }
  // Refused (store full of live custody): the application still holds the
  // fragment and offers it again, as a host sender retries toward its
  // first custodian.
  mesh_.loop().schedule_in(config_.retry.timeout_for(attempt),
                           [this, src, attempt, p = std::move(packet)]() mutable {
                             offer(src, std::move(p), attempt + 1);
                           });
}

void MeshCustodyFleet::on_delivery(std::size_t i, std::span<const std::uint8_t> packet,
                                   std::uint64_t now) {
  const auto view = parse_custody_view(packet);
  if (!view) return;
  CustodyAgent& agent = *agents_[i];
  if (view->tag.is_ack()) {
    (void)agent.on_ack(*view);  // a forged release is ignored
    return;
  }
  mesh::MeshRouter& r = mesh_.router(i);
  const auto tag =
      verify_custody_tag(view->tag_field(), config_.custody_key, r.env().mac_kind);
  if (!tag) return;  // forged/corrupt custody plane: ignore

  // Terminal data fragment. ACK the last custodian (the final custody
  // transfer), dedup, and assemble.
  agent.ack(*tag, view->frag, mesh_.local_face_of(i));
  if (!rx_frags_.insert(frag_key(tag->bundle_id, view->frag.index)).second) {
    ++duplicates_;
    return;
  }
  ++fragments_delivered_;
  if (rx_complete_.count(tag->bundle_id) != 0) return;
  RxBundle& rx = rx_pending_[tag->bundle_id];
  if (rx.total == 0) rx.total = view->frag.total;
  if (rx.total != 0 && ++rx.got >= rx.total) {
    rx_complete_.insert(tag->bundle_id);
    rx_pending_.erase(tag->bundle_id);
    if (auto it = bundle_times_.find(tag->bundle_id); it != bundle_times_.end()) {
      it->second.second = now;
    }
  }
}

bool MeshCustodyFleet::stores_empty() const {
  for (const auto& a : agents_) {
    if (a->store().bundles() != 0) return false;
  }
  return true;
}

std::uint64_t MeshCustodyFleet::acks_sent() const noexcept {
  std::uint64_t n = 0;
  for (const auto& a : agents_) n += a->acks_sent();
  return n;
}

std::uint64_t MeshCustodyFleet::custody_drops() const noexcept {
  std::uint64_t n = 0;
  for (const auto& a : agents_) n += a->custody_drops();
  return n;
}

CustodyStoreStats MeshCustodyFleet::aggregate_store_stats() const {
  CustodyStoreStats total;
  for (const auto& a : agents_) {
    const CustodyStoreStats& s = a->store().stats();
    total.commits += s.commits;
    total.duplicate_commits += s.duplicate_commits;
    total.refused_full += s.refused_full;
    total.released += s.released;
    total.evicted += s.evicted;
    total.retransmissions += s.retransmissions;
    total.duplicate_acks += s.duplicate_acks;
    total.bytes_high_water += s.bytes_high_water;
    total.bundles_high_water += s.bundles_high_water;
  }
  return total;
}

std::size_t MeshCustodyFleet::store_bytes_high_water() const {
  std::size_t high = 0;
  for (const auto& a : agents_) {
    high = std::max(high, a->store().stats().bytes_high_water);
  }
  return high;
}

std::pair<std::uint64_t, std::uint64_t> MeshCustodyFleet::bundle_times(
    std::uint32_t bundle) const {
  const auto it = bundle_times_.find(bundle);
  return it == bundle_times_.end() ? std::pair<std::uint64_t, std::uint64_t>{0, 0}
                                   : it->second;
}

void MeshCustodyFleet::write_stats(telemetry::StatsWriter& w) const {
  for (std::size_t i = 0; i < agents_.size(); ++i) {
    agents_[i]->store().write_stats(w, node_id(i));
  }
  w.counter("dip_dtn_fragments_delivered_total", {}, fragments_delivered_);
  w.counter("dip_dtn_duplicate_fragments_total", {}, duplicates_);
  w.counter("dip_dtn_acks_total", {}, acks_sent());
  w.counter("dip_dtn_custody_drops_total", {}, custody_drops());
  w.gauge("dip_dtn_bundles_completed", {}, static_cast<double>(rx_complete_.size()));
}

}  // namespace dip::dtn
