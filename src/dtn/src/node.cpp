#include "dip/dtn/node.hpp"

#include <string>

#include "dip/mesh/control.hpp"

namespace dip::dtn {

CustodyRouterNode::CustodyRouterNode(core::RouterEnv env,
                                     std::shared_ptr<const core::OpRegistry> registry,
                                     Config config)
    : runtime_(std::move(env), std::move(registry),
               [this](core::FaceId face, netsim::PacketBytes packet) {
                 network()->send(*this, face, std::move(packet));
               }),
      agent_(runtime_.env(), config,
             {.send = [this](core::FaceId face,
                             std::span<const std::uint8_t> packet) {
                network()->send(*this, face, {packet.begin(), packet.end()});
              },
              .schedule = [this](SimDuration delay, std::function<void()> fn) {
                network()->loop().schedule_in(delay, std::move(fn));
                return std::uint64_t{0};
              },
              .cancel = {},
              .now = [this] { return network()->now(); },
              .send_ack = [this](core::FaceId ingress, netsim::PacketBytes ack) {
                network()->send(*this, ingress, std::move(ack));
              }}) {
  runtime_.set_forward_veto([this](core::FaceId ingress, core::FaceId egress,
                                   std::span<const std::uint8_t> packet) {
    return agent_.on_forward(ingress, egress, packet);
  });
}

fib::Ipv4Addr CustodyRouterNode::address() const noexcept {
  return mesh::addr_of(runtime_.env().node_id);
}

void CustodyRouterNode::on_packet(netsim::FaceId face, netsim::PacketBytes packet,
                                  SimTime now) {
  if (const auto view = parse_custody_view(packet); view && view->tag.is_ack()) {
    const auto dst = dip32_destination(view->header);
    if (dst && *dst == address()) {
      if (!agent_.on_ack(*view)) runtime_.drops().count(core::DropReason::kAuthFailed);
      return;
    }
  }
  runtime_.receive(face, std::move(packet), now);
}

void CustodyRouterNode::write_stats(telemetry::StatsWriter& w) const {
  runtime_.write_stats(w);
  const std::uint32_t node = runtime_.env().node_id;
  const std::string node_id = std::to_string(node);
  const telemetry::Label labels[] = {{"node", node_id}};
  agent_.store().write_stats(w, node);
  w.counter("dip_dtn_acks_total", labels, agent_.acks_sent());
  w.counter("dip_dtn_custody_drops_total", labels, agent_.custody_drops());
}

}  // namespace dip::dtn
