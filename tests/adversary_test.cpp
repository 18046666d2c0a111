// Adversarial soundness properties.
//
// The security protocols' value is what they *reject*. These tests throw
// randomized adversaries at OPT and EPIC and assert the cryptographic
// soundness property: no mutation of the authenticated regions survives
// verification. They also pin simulator conservation invariants (packets
// are never duplicated or silently swallowed by the substrate).
#include <gtest/gtest.h>

#include "dip/core/ip.hpp"
#include "dip/core/router.hpp"
#include "dip/epic/epic.hpp"
#include "dip/netsim/topology.hpp"
#include "dip/netsim/traffic.hpp"
#include "dip/ndn/ndn.hpp"
#include "dip/opt/opt.hpp"

namespace dip {
namespace {

std::shared_ptr<core::OpRegistry> registry() {
  static auto r = netsim::make_default_registry();
  return r;
}

struct SecurityPath {
  std::vector<crypto::Block> secrets;
  std::vector<core::Router> routers;
  opt::Session session;
};

SecurityPath make_path(std::size_t hops, std::uint64_t seed) {
  SecurityPath path;
  crypto::Xoshiro256 rng(seed);
  for (std::size_t i = 0; i < hops; ++i) {
    auto env = netsim::make_basic_env(static_cast<std::uint32_t>(i));
    env.node_secret = rng.block();
    path.secrets.push_back(env.node_secret);
    env.default_egress = 1;
    path.routers.emplace_back(std::move(env), registry().get());
  }
  path.session = opt::negotiate_session(rng.block(), path.secrets, rng.block());
  return path;
}

constexpr std::array<std::uint8_t, 6> kPayload = {'s', 'o', 'u', 'n', 'd', '!'};

// Property: any in-flight mutation of the OPT locations block or payload
// that actually changes bytes must fail destination verification.
TEST(AdversarialOpt, NoLocationMutationSurvivesVerification) {
  crypto::Xoshiro256 rng(0xAD01);
  int survived = 0;
  for (int trial = 0; trial < 300; ++trial) {
    SecurityPath path = make_path(1 + rng.below(4), 1000 + trial);
    auto packet = opt::make_opt_header(path.session, kPayload, 7)->serialize();
    packet.insert(packet.end(), kPayload.begin(), kPayload.end());

    // Mutate at a random hop boundary: before, between, or after routers.
    const std::size_t mutate_at = rng.below(path.routers.size() + 1);
    const auto header_probe = core::DipHeader::parse(packet);
    ASSERT_TRUE(header_probe.has_value());
    const std::size_t loc_start = packet.size() - kPayload.size() - 68;

    bool mutated_something = false;
    for (std::size_t hop = 0; hop <= path.routers.size(); ++hop) {
      if (hop == mutate_at) {
        // Flip 1..3 bytes anywhere in locations block or payload. Two flips
        // can cancel, so "mutated" is judged by comparing bytes, not flips.
        const auto before = packet;
        const std::size_t flips = 1 + rng.below(3);
        for (std::size_t f = 0; f < flips; ++f) {
          const std::size_t at = loc_start + rng.below(packet.size() - loc_start);
          packet[at] ^= static_cast<std::uint8_t>(1 + rng.below(255));
        }
        mutated_something = packet != before;
      }
      if (hop < path.routers.size()) {
        // Routers may legitimately drop packets they cannot process.
        const auto result = path.routers[hop].process(packet, 0, 0);
        if (result.action != core::Action::kForward) goto next_trial;
      }
    }
    {
      const auto header = core::DipHeader::parse(packet);
      if (!header) goto next_trial;
      const auto verdict = opt::verify_packet(
          path.session, header->locations,
          std::span<const std::uint8_t>(packet).subspan(header->wire_size()));
      if (mutated_something && verdict == opt::VerifyResult::kOk) ++survived;
    }
  next_trial:;
  }
  EXPECT_EQ(survived, 0) << "a mutated OPT packet verified OK";
}

// Property: EPIC forgeries never verify, and honest packets always do —
// across random path lengths.
TEST(AdversarialEpic, ForgeryNeverVerifiesHonestyAlwaysDoes) {
  crypto::Xoshiro256 rng(0xAD02);
  for (int trial = 0; trial < 200; ++trial) {
    SecurityPath path = make_path(1 + rng.below(8), 2000 + trial);

    // Honest leg.
    auto honest = epic::make_epic_header(path.session, kPayload, 7)->serialize();
    honest.insert(honest.end(), kPayload.begin(), kPayload.end());
    for (auto& router : path.routers) {
      ASSERT_EQ(router.process(honest, 0, 0).action, core::Action::kForward);
    }
    const auto h = core::DipHeader::parse(honest);
    ASSERT_TRUE(h.has_value());
    EXPECT_EQ(epic::verify_packet(
                  path.session, h->locations,
                  std::span<const std::uint8_t>(honest).subspan(h->wire_size())),
              epic::VerifyResult::kOk);

    // Forged leg: random subset of hop keys wrong.
    opt::Session forged = path.session;
    bool any_wrong = false;
    for (auto& key : forged.router_keys) {
      if (rng.below(2) == 0) {
        key = rng.block();
        any_wrong = true;
      }
    }
    if (!any_wrong) forged.router_keys[0] = rng.block();

    auto spoof = epic::make_epic_header(forged, kPayload, 7)->serialize();
    spoof.insert(spoof.end(), kPayload.begin(), kPayload.end());
    bool dropped_in_network = false;
    for (auto& router : path.routers) {
      if (router.process(spoof, 0, 0).action != core::Action::kForward) {
        dropped_in_network = true;
        break;
      }
    }
    EXPECT_TRUE(dropped_in_network)
        << "a forged hop key must be caught by that hop's router";
  }
}

// Property: the simulator neither duplicates nor invents packets.
// transmitted == delivered + lost, and sinks see exactly `delivered`.
TEST(SimulatorConservation, TransmitsEqualDeliveriesPlusLosses) {
  crypto::Xoshiro256 rng(0xAD03);
  for (int trial = 0; trial < 20; ++trial) {
    netsim::Network net(trial);
    netsim::HostNode a;
    netsim::HostNode b;
    net.add_node(a);
    net.add_node(b);
    netsim::LinkParams params;
    params.faults.drop_rate = rng.uniform() * 0.5;
    params.latency = rng.below(1000);
    const auto [fa, fb] = net.connect(a, b, params);
    (void)fb;

    std::uint64_t sunk = 0;
    b.set_receiver([&](netsim::FaceId, netsim::PacketBytes, SimTime) { ++sunk; });

    const std::uint64_t to_send = 50 + rng.below(200);
    for (std::uint64_t i = 0; i < to_send; ++i) {
      net.send(a, fa, netsim::PacketBytes(1 + rng.below(100)));
    }
    net.run();

    const auto& stats = net.stats();
    EXPECT_EQ(stats.transmitted, to_send);
    EXPECT_EQ(stats.delivered + stats.lost, stats.transmitted);
    EXPECT_EQ(sunk, stats.delivered);
  }
}

// Stress: one router, all protocols interleaved randomly, with occasional
// garbage — counters must balance and nothing crashes.
TEST(RouterStress, InterleavedProtocolsCountersBalance) {
  crypto::Xoshiro256 rng(0xAD04);
  auto env = netsim::make_basic_env(1);
  env.fib32->insert({fib::ipv4_from_u32(0x0A000000), 8}, 1);
  env.fib128->insert({fib::parse_ipv6("2001:db8::").value(), 32}, 1);
  env.content_store.emplace(128);
  core::Router router(std::move(env), registry().get());

  SecurityPath opt_path = make_path(1, 0x5EED);
  auto& opt_router = opt_path.routers[0];
  (void)opt_router;

  std::uint64_t attempts = 0;
  for (int i = 0; i < 5000; ++i) {
    std::vector<std::uint8_t> packet;
    switch (rng.below(5)) {
      case 0:
        packet = core::make_dip32_header(fib::ipv4_from_u32(rng.u32()),
                                         fib::ipv4_from_u32(rng.u32()))
                     ->serialize();
        break;
      case 1:
        packet = ndn::make_interest_header32(rng.u32())->serialize();
        break;
      case 2:
        packet = ndn::make_data_header32(rng.u32())->serialize();
        break;
      case 3: {
        packet = opt::make_opt_header(opt_path.session, kPayload, 7)->serialize();
        packet.insert(packet.end(), kPayload.begin(), kPayload.end());
        break;
      }
      default:
        packet.resize(rng.below(64));
        for (auto& byte : packet) byte = static_cast<std::uint8_t>(rng.next());
        break;
    }
    (void)router.process(packet, static_cast<core::FaceId>(rng.below(4)), i);
    ++attempts;
  }

  const auto& counters = router.env().counters;
  EXPECT_EQ(counters.processed, attempts);
  EXPECT_EQ(counters.forwarded + counters.dropped + counters.errors, attempts)
      << "every packet must be accounted for exactly once";
}

}  // namespace
}  // namespace dip
