// Heterogeneous deployment, end to end (§2.3 + §2.4).
//
// Four ASes; AS3 never deployed the OPT chain. A host in AS1 wants to send
// authenticated traffic to AS4. Two worlds:
//
//  * without capability propagation, the host composes OPT anyway, the
//    packet dies at AS3, and an FN-unsupported notification comes back
//    (the §2.4 ICMP-like mechanism);
//  * with BGP-community-style propagation (§2.3), the host asks the AS
//    graph what works end to end, sees the OPT chain is unusable, and
//    composes plain DIP-32 instead — no wasted round trip.
#include <cstdio>

#include "dip/bootstrap/propagation.hpp"
#include "dip/core/ip.hpp"
#include "dip/netsim/topology.hpp"
#include "dip/opt/opt.hpp"
#include "dip/security/error_message.hpp"

int main() {
  using namespace dip;
  using core::OpKey;

  std::printf("== Heterogeneous internet: AS3 lacks the OPT chain ==\n\n");

  // --- the AS-level capability map (BGP-community propagation, §2.3) ------
  bootstrap::AsGraph graph;
  bootstrap::CapabilitySet no_opt = bootstrap::full_capability_set();
  no_opt.remove(OpKey::kParm);
  no_opt.remove(OpKey::kMac);
  no_opt.remove(OpKey::kMark);
  graph.add_as(1, bootstrap::full_capability_set());
  graph.add_as(2, bootstrap::full_capability_set());
  graph.add_as(3, no_opt);
  graph.add_as(4, bootstrap::full_capability_set());
  if (!graph.add_link(1, 2) || !graph.add_link(2, 3) || !graph.add_link(3, 4)) {
    std::fprintf(stderr, "AS graph: a link joins an unknown AS\n");
    return 1;
  }

  // --- the wire-level topology: one border router per AS ------------------
  netsim::Network net;
  auto registry = netsim::make_default_registry();
  auto path = netsim::make_linear_path(net, 4, registry, [](std::size_t i) {
    return netsim::make_basic_env(static_cast<std::uint32_t>(i + 1));
  });
  std::vector<crypto::Block> secrets;
  for (std::size_t i = 0; i < 4; ++i) {
    auto& env = path->routers[i]->env();
    env.fib32->insert({fib::parse_ipv4("10.4.0.0").value(), 16},
                      path->downstream_face[i]);
    env.fib32->insert({fib::parse_ipv4("10.1.0.0").value(), 16},
                      path->upstream_face[i]);
    env.default_egress.reset();
    secrets.push_back(env.node_secret);
  }
  path->routers[2]->env().disabled_keys.insert(OpKey::kParm);  // AS3
  path->routers[2]->env().disabled_keys.insert(OpKey::kMac);
  path->routers[2]->env().disabled_keys.insert(OpKey::kMark);

  crypto::Xoshiro256 rng(11);
  const auto session = opt::negotiate_session(rng.block(), secrets, rng.block());

  int delivered = 0;
  std::optional<security::FnUnsupportedError> notification;
  path->destination.set_receiver(
      [&](netsim::FaceId, netsim::PacketBytes, SimTime) { ++delivered; });
  path->source.set_receiver([&](netsim::FaceId, netsim::PacketBytes packet, SimTime) {
    const auto h = core::DipHeader::parse(packet);
    if (h && security::is_fn_unsupported(*h)) {
      const auto body = security::FnUnsupportedError::parse(
          std::span<const std::uint8_t>(packet).subspan(h->wire_size()));
      if (body) notification = *body;
    }
  });

  auto opt_over_ip_packet = [&] {
    // OPT chain riding DIP-32 forwarding (so the error can route back).
    const std::vector<std::uint8_t> payload = {'h', 'i'};
    const auto block = opt::make_source_block(session, payload, 1);
    core::HeaderBuilder b;
    b.add_router_fn(OpKey::kMatch32, fib::parse_ipv4("10.4.0.9").value().bytes);
    b.add_router_fn(OpKey::kSource, fib::parse_ipv4("10.1.0.1").value().bytes);
    const std::uint16_t loc = b.add_location(block);
    b.add_fn(core::FnTriple::router(loc + 128, 128, OpKey::kParm));
    b.add_fn(core::FnTriple::router(loc, 416, OpKey::kMac));
    b.add_fn(core::FnTriple::router(loc + 288, 128, OpKey::kMark));
    auto wire = b.build()->serialize();
    wire.insert(wire.end(), payload.begin(), payload.end());
    return wire;
  };

  // --- world 1: the naive host ---------------------------------------------
  std::printf("-- naive host: composes OPT without checking the path --\n");
  path->source.send(path->source_face, opt_over_ip_packet());
  net.run();
  if (notification) {
    std::printf("packet died mid-path; FN-unsupported notification received:\n");
    std::printf("  offending FN = %s, reported by node %u (AS3's router)\n",
                std::string(core::op_key_name(notification->offending_key)).c_str(),
                notification->reporter_node);
  }
  std::printf("delivered so far: %d\n\n", delivered);

  // --- world 2: the informed host ------------------------------------------
  std::printf("-- informed host: consults the AS capability graph first --\n");
  const auto caps = graph.end_to_end(1, 4);
  const bool opt_usable = caps && caps->supports(OpKey::kParm) &&
                          caps->supports(OpKey::kMac) && caps->supports(OpKey::kMark);
  std::printf("end-to-end capability intersection says OPT chain usable: %s\n",
              opt_usable ? "yes" : "NO");

  if (!opt_usable) {
    std::printf("composing plain DIP-32 instead (graceful degradation)\n");
    const auto h = core::make_dip32_header(fib::parse_ipv4("10.4.0.9").value(),
                                           fib::parse_ipv4("10.1.0.1").value());
    path->source.send(path->source_face, h->serialize());
    net.run();
  }
  std::printf("delivered so far: %d\n\n", delivered);

  std::printf("Same routers, same FN registry — the capability plane (2.3) turns\n"
              "a mid-path failure into a host-side decision (2.4).\n");
  return (notification && delivered == 1) ? 0 : 1;
}
