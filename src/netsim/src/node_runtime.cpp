#include "dip/netsim/node_runtime.hpp"

#include <string>

#include "dip/core/header.hpp"
#include "dip/ndn/ndn.hpp"
#include "dip/security/error_message.hpp"
#include "dip/telemetry/telemetry.hpp"

namespace dip::netsim {

void DropLedger::write_stats(telemetry::StatsWriter& w, std::string_view series,
                             std::string_view node) const {
  for (std::size_t r = 0; r < counts_.size(); ++r) {
    if (counts_[r] == 0) continue;
    const telemetry::Label labels[] = {
        {"node", node}, {"reason", core::to_string(static_cast<core::DropReason>(r))}};
    w.counter(series, labels, counts_[r]);
  }
}

void NodeRuntime::receive(core::FaceId ingress, PacketBytes packet, SimTime now) {
  const core::ProcessResult result = router_.process(packet, ingress, now);
  apply(ingress, packet, result);
}

void NodeRuntime::receive_burst(core::FaceId ingress, std::span<PacketBytes> packets,
                                SimTime now) {
  burst_refs_.assign(packets.begin(), packets.end());
  burst_results_.resize(packets.size());
  router_.process_batch(burst_refs_, ingress, now, burst_results_);
  for (std::size_t i = 0; i < packets.size(); ++i) {
    apply(ingress, packets[i], burst_results_[i]);
  }
}

void NodeRuntime::apply(core::FaceId ingress, PacketBytes& packet,
                        const core::ProcessResult& result) {
  switch (result.action) {
    case core::Action::kForward: {
      if (result.respond_from_cache) {
        respond_from_cache(packet, ingress);
        return;
      }
      for (std::size_t i = 0; i < result.egress.size(); ++i) {
        const core::FaceId egress = result.egress[i];
        if (veto_ && !veto_(ingress, egress, packet)) continue;
        send_(egress, i + 1 == result.egress.size() ? std::move(packet) : packet);
      }
      return;
    }
    case core::Action::kDrop:
      drops_.count(result.reason);
      return;
    case core::Action::kError:
      drops_.count(result.reason);
      emit_error(packet, result.offending_key, ingress);
      return;
  }
}

void NodeRuntime::emit_error(const PacketBytes& original, core::OpKey offending,
                             core::FaceId ingress) {
  // §2.4: notify the source through a mechanism similar to ICMP. The
  // notification leaves through the face the offending packet arrived on —
  // the reverse path, as ICMP would.
  const auto header = core::DipHeader::parse(original);
  if (!header) return;
  auto notification =
      security::make_fn_unsupported_packet(*header, offending, env().node_id);
  if (!notification) return;  // no F_source: nobody to notify
  send_(ingress, std::move(*notification));
}

void NodeRuntime::respond_from_cache(const PacketBytes& interest, core::FaceId ingress) {
  // Footnote 2: a caching node answers the interest itself. Synthesize the
  // data packet from the content store and send it back out the ingress.
  auto& store = env().content_store;
  if (!store) return;
  const auto header = core::DipHeader::parse(interest);
  if (!header) return;
  const auto name_code = ndn::extract_name_code(*header);
  if (!name_code) return;
  const auto payload = store->lookup(*name_code);
  if (!payload) return;
  const auto data_header = ndn::make_data_header32(*name_code, core::NextHeader::kNone);
  if (!data_header) return;
  PacketBytes data = data_header->serialize();
  data.insert(data.end(), payload->begin(), payload->end());
  send_(ingress, std::move(data));
}

void NodeRuntime::write_stats(telemetry::StatsWriter& w) const {
  const std::string node_id = std::to_string(env().node_id);
  const telemetry::Label labels[] = {{"node", node_id}};
  const auto namer = [](std::size_t slot) {
    return core::op_key_name(static_cast<core::OpKey>(slot));
  };
  telemetry::write_counter_snapshot(w, env().counters.snapshot(), labels, +namer);
  if (const telemetry::RouterStats* stats = env().stats.get()) {
    telemetry::write_router_stats(w, stats->snapshot(), labels, +namer);
  }
  drops_.write_stats(w, "dip_node_drops_total", node_id);
}

}  // namespace dip::netsim
