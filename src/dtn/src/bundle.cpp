#include "dip/dtn/bundle.hpp"

#include "dip/dtn/agent.hpp"
#include "dip/mesh/control.hpp"

namespace dip::dtn {

std::uint32_t BundleSender::send(std::span<const std::uint8_t> payload) {
  const std::uint32_t bundle = next_bundle_++;
  const std::size_t per = config_.frag_payload == 0 ? 1 : config_.frag_payload;
  const std::size_t total =
      payload.empty() ? 1 : (payload.size() + per - 1) / per;

  for (std::size_t i = 0; i < total; ++i) {
    Flight flight;
    flight.frag.index = static_cast<std::uint16_t>(i);
    flight.frag.total = static_cast<std::uint16_t>(total);
    flight.frag.bundle_id = bundle;
    const std::size_t off = i * per;
    const std::size_t len = std::min(per, payload.size() - std::min(off, payload.size()));
    flight.payload.assign(payload.begin() + static_cast<std::ptrdiff_t>(off),
                          payload.begin() + static_cast<std::ptrdiff_t>(off + len));
    flight.sender =
        std::make_unique<host::ReliableSender>(node_, face_, config_.retry);

    const std::uint64_t key = frag_key(bundle, flight.frag.index);
    // The factory owns copies of everything it needs: it outlives the
    // Flight map entry (armed timers fire after acknowledge/failure).
    const FragInfo frag = flight.frag;
    std::vector<std::uint8_t> frag_payload = flight.payload;
    flight.epoch = flight.sender->send(
        [this, frag, frag_payload](std::uint32_t) {
          // The sender is the bundle's initial custodian.
          return make_fragment_packet(config_.dst, config_.self, config_.node_id, frag,
                                      frag_payload, config_.custody_key, config_.mac,
                                      config_.hop_limit);
        },
        [this, key] {
          auto it = in_flight_.find(key);
          if (it == in_flight_.end()) return;
          ++failures_;
          retired_.push_back(std::move(it->second.sender));
          in_flight_.erase(it);
        });
    in_flight_.emplace(key, std::move(flight));
  }
  return bundle;
}

bool BundleSender::on_packet(std::span<const std::uint8_t> packet) {
  const auto view = parse_custody_view(packet);
  if (!view || !view->tag.is_ack()) return false;
  const auto dst = dip32_destination(view->header);
  if (!dst || !(*dst == config_.self)) return false;
  const auto tag =
      verify_custody_tag(view->tag_field(), config_.custody_key, config_.mac);
  if (!tag) return true;  // forged/corrupt ACK: consumed, ignored

  const std::uint64_t key = frag_key(tag->bundle_id, view->frag.index);
  auto it = in_flight_.find(key);
  if (it == in_flight_.end()) return true;  // duplicate ACK of a retired flight
  if (it->second.sender->acknowledge(it->second.epoch)) {
    ++committed_;
    retired_.push_back(std::move(it->second.sender));
    in_flight_.erase(it);
  }
  return true;
}

std::uint64_t BundleSender::retransmissions() const noexcept {
  std::uint64_t sum = 0;
  for (const auto& [key, flight] : in_flight_) sum += flight.sender->retransmissions();
  for (const auto& sender : retired_) sum += sender->retransmissions();
  return sum;
}

bool BundleReceiver::on_packet(std::span<const std::uint8_t> packet) {
  const auto view = parse_custody_view(packet);
  if (!view || view->tag.is_ack()) return false;  // custody ACKs are sender business
  const auto dst = dip32_destination(view->header);
  if (!dst || !(*dst == config_.self)) return false;

  ++fragments_;
  const auto tag =
      verify_custody_tag(view->tag_field(), config_.custody_key, config_.mac);
  if (!tag) {
    // A fragment whose custody chain fails the MAC is never ACKed: the
    // custodian keeps it and retries, eventually with a clean copy.
    ++rejected_;
    return true;
  }
  const FragInfo frag = view->frag;
  if (frag.total == 0 || frag.index >= frag.total) {
    ++rejected_;
    return true;
  }

  if (completed_.count(frag.bundle_id) != 0) {
    // The bundle already assembled; the custodian missed our ACK — re-ACK.
    ++duplicates_;
    send_ack(*tag, frag);
    return true;
  }

  auto [it, created] = pending_.try_emplace(frag.bundle_id);
  Pending& bundle = it->second;
  if (created) bundle.total = frag.total;
  if (bundle.poisoned) {
    ++rejected_;
    return true;
  }
  if (frag.total != bundle.total) {
    // Geometry conflict: this fragment cannot belong to the bundle we have
    // been assembling.
    ++rejected_;
    if (config_.strict) {
      bundle.poisoned = true;
      bundle.frags.clear();
      ++poisoned_;
    }
    return true;  // lenient: first-seen geometry wins, fragment quarantined
  }
  if (bundle.frags.count(frag.index) != 0) {
    ++duplicates_;
    send_ack(*tag, frag);  // the custodian is retrying: it missed the ACK
    return true;
  }

  const std::size_t header_size = view->header.wire_size();
  bundle.frags.emplace(frag.index,
                       std::vector<std::uint8_t>(packet.begin() +
                                                     static_cast<std::ptrdiff_t>(
                                                         std::min(header_size,
                                                                  packet.size())),
                                                 packet.end()));
  send_ack(*tag, frag);

  if (bundle.frags.size() == bundle.total) {
    std::vector<std::uint8_t> payload;
    for (auto& [index, piece] : bundle.frags) {
      payload.insert(payload.end(), piece.begin(), piece.end());
    }
    completed_.insert(frag.bundle_id);
    pending_.erase(it);
    if (handler_) handler_(frag.bundle_id, std::move(payload));
  }
  return true;
}

void BundleReceiver::send_ack(const CustodyTag& tag, const FragInfo& frag) {
  const auto ack =
      make_custody_ack_header(mesh::addr_of(tag.custodian), config_.self, tag, frag,
                              config_.custody_key, config_.mac);
  if (!ack) return;
  node_.send(face_, ack->serialize());
}

}  // namespace dip::dtn
