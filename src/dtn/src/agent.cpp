#include "dip/dtn/agent.hpp"

#include "dip/mesh/control.hpp"

namespace dip::dtn {

std::optional<CustodyView> parse_custody_view(std::span<const std::uint8_t> packet) {
  auto parsed = core::DipHeader::parse(packet);
  if (!parsed) return std::nullopt;
  CustodyView v;
  v.header = std::move(*parsed);
  const auto cf = find_custody_field(v.header.fns);
  if (!cf) return std::nullopt;
  v.tag_at = cf->bit_offset / 8;
  if (v.header.locations.size() < v.tag_at + kCustodyTagBytes) return std::nullopt;
  v.tag = CustodyTag::read(v.tag_field());
  if (const auto ff = find_frag_field(v.header.fns)) {
    const std::size_t at = ff->bit_offset / 8;
    if (v.header.locations.size() >= at + kFragBytes) {
      v.frag = FragInfo::read(
          std::span<const std::uint8_t>(v.header.locations).subspan(at, kFragBytes));
    }
  }
  return v;
}

CustodyAgent::CustodyAgent(core::RouterEnv& env, Config config, Substrate substrate)
    : env_(env),
      config_(config),
      substrate_(std::move(substrate)),
      store_(std::make_shared<CustodyStore>(config.limits)),
      retx_(config.retx) {
  env_.custody_store = store_;
}

bool CustodyAgent::on_forward(core::FaceId ingress, core::FaceId egress,
                              std::span<const std::uint8_t> packet, bool custody_hop) {
  const SimTime now = substrate_.now();
  // The op only rewrote the tag if the MAC verified; the custodian field
  // naming this node is the acceptance signal.
  const auto view = parse_custody_view(packet);
  if (!view || !env_.accept_custody || view->tag.is_ack() || !view->tag.requested() ||
      view->tag.custodian != env_.node_id) {
    retx_.on_primary(packet.size(), now);  // first-transmission band
    return true;
  }
  if (!custody_hop) return true;

  const std::uint64_t key = view->key();
  bool duplicate = false;
  CustodyStore::Entry* entry = store_->commit(key, packet, egress, now, &duplicate);
  if (entry == nullptr) {
    // Full of live custody: refuse. No ACK, no forward — the previous
    // custodian keeps the fragment and retries.
    ++custody_drops_;
    return false;
  }
  ack(view->tag, view->frag, ingress);
  if (duplicate) {
    // Upstream retransmitted before our ACK landed: re-ACKed above, but a
    // second copy never goes downstream.
    ++custody_drops_;
    return false;
  }
  retx_.on_primary(packet.size(), now);
  arm_retry(key);
  return true;
}

bool CustodyAgent::on_ack(const CustodyView& view) {
  if (!verify_custody_tag(view.tag_field(), env_.custody_key, env_.mac_kind)) return false;
  // Duplicate ACKs (chaos links duplicate packets; the next custodian
  // re-ACKs duplicate commits) find the entry gone and are counted by the
  // store.
  const std::uint64_t key = view.key();
  if (const CustodyStore::Entry* entry = store_->find(key);
      entry != nullptr && entry->timer_id != 0 && substrate_.cancel) {
    substrate_.cancel(entry->timer_id);
  }
  store_->release(key);
  return true;
}

void CustodyAgent::ack(const CustodyTag& accepted, const FragInfo& frag,
                       core::FaceId ingress) {
  if (accepted.prev_custodian == static_cast<std::uint16_t>(env_.node_id)) return;
  const auto ack = make_custody_ack_header(mesh::addr_of(accepted.prev_custodian),
                                           mesh::addr_of(env_.node_id), accepted, frag,
                                           env_.custody_key, env_.mac_kind);
  if (!ack) return;
  ++acks_sent_;
  substrate_.send_ack(ingress, ack->serialize());
}

void CustodyAgent::arm_retry(std::uint64_t key) {
  CustodyStore::Entry* entry = store_->find(key);
  if (entry == nullptr) return;
  // Backoff per the retry policy, plus the DPS-priced pacing gap: custody
  // retransmissions drain at lower priority than first-transmission traffic.
  const SimDuration delay = config_.retry.timeout_for(entry->attempts) +
                            retx_.gap_for(entry->packet.size());
  const std::uint32_t expected = entry->attempts;
  entry->timer_id =
      substrate_.schedule(delay, [this, key, expected] { on_retry(key, expected); });
}

void CustodyAgent::on_retry(std::uint64_t key, std::uint32_t expected_attempts) {
  CustodyStore::Entry* entry = store_->find(key);
  // Released (ACK arrived) or superseded by a newer timer generation.
  if (entry == nullptr || entry->attempts != expected_attempts) return;
  if (!store_->charge_retransmission(key)) {
    entry->timer_id = 0;  // exhausted: go quiet, stay evictable
    return;
  }
  substrate_.send(entry->egress, entry->packet);
  arm_retry(key);  // attempts advanced, so this timer's generation is fresh
}

}  // namespace dip::dtn
