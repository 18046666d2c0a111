// Control-plane subsystem (ISSUE 5): RCU snapshot tables with QSBR
// grace-period reclamation, the coalescing RouteJournal, and the netsim
// ControlPlane driving convergence under link failure.
//
// The CtrlRace suite is the shared-FIB race regression: before src/ctrl/,
// mutating a shared fib32 while RouterPool workers forwarded was a data
// race TSan flagged; routed through SnapshotTable publishes it must be
// clean (scripts/check.sh runs this binary in the TSan leg).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <vector>

#include "dip/core/ip.hpp"
#include "dip/core/router_pool.hpp"
#include "dip/ctrl/control_plane.hpp"
#include "dip/ctrl/journal.hpp"
#include "dip/ctrl/snapshot.hpp"
#include "dip/ctrl/spf.hpp"
#include "dip/crypto/random.hpp"
#include "dip/fib/address.hpp"
#include "dip/fib/tree_bitmap.hpp"
#include "dip/netsim/topology.hpp"

namespace dip {
namespace {

using ctrl::ControlTables;
using ctrl::QsbrDomain;
using ctrl::ReaderSlot;
using ctrl::RouteJournal;
using ctrl::SnapshotTable;

std::vector<std::uint8_t> dip32_packet(std::uint32_t dst) {
  return core::make_dip32_header(fib::ipv4_from_u32(dst),
                                 fib::ipv4_from_u32(0x7F000001))
      ->serialize();
}

// ---------------------------------------------------------------------------
// QSBR snapshot layer
// ---------------------------------------------------------------------------

TEST(Qsbr, SnapshotPublishAndRead) {
  QsbrDomain domain;
  SnapshotTable<int> table;
  EXPECT_EQ(table.read(), nullptr);

  table.publish(std::make_shared<const int>(1), domain);
  ASSERT_NE(table.read(), nullptr);
  EXPECT_EQ(*table.read(), 1);
  EXPECT_EQ(domain.backlog(), 0u) << "first publish retires nothing";

  table.publish(std::make_shared<const int>(2), domain);
  EXPECT_EQ(*table.read(), 2);
  EXPECT_EQ(domain.backlog(), 1u) << "old snapshot awaits its grace period";
}

TEST(Qsbr, GracePeriodBlocksReclaimUntilReaderQuiesces) {
  QsbrDomain domain;
  SnapshotTable<int> table;
  const ctrl::ReaderHandle reader = domain.register_reader();
  domain.resume(reader);  // join the protocol at the current version

  table.publish(std::make_shared<const int>(1), domain);
  table.publish(std::make_shared<const int>(2), domain);  // retires #1
  table.publish(std::make_shared<const int>(3), domain);  // retires #2

  // The reader announced a version older than both retirement tags: nothing
  // may be freed while it could still hold those pointers.
  EXPECT_EQ(domain.try_reclaim(), 0u);
  EXPECT_EQ(domain.backlog(), 2u);

  domain.quiesce(reader);  // burst boundary: all raw pointers dropped
  EXPECT_EQ(domain.try_reclaim(), 2u);
  EXPECT_EQ(domain.backlog(), 0u);
  EXPECT_EQ(domain.reclaimed_total(), 2u);
}

TEST(Qsbr, ParkedReaderNeverStallsReclamation) {
  QsbrDomain domain;
  SnapshotTable<int> table;
  const ctrl::ReaderHandle reader = domain.register_reader();
  domain.resume(reader);

  table.publish(std::make_shared<const int>(1), domain);
  QsbrDomain::park(reader);  // blocking with no packets in flight
  table.publish(std::make_shared<const int>(2), domain);
  EXPECT_EQ(domain.try_reclaim(), 1u)
      << "a parked reader holds nothing and must not block the grace period";

  // Waking re-joins at the current version: later retirees wait for it again.
  domain.resume(reader);
  table.publish(std::make_shared<const int>(3), domain);
  EXPECT_EQ(domain.try_reclaim(), 0u);
  domain.quiesce(reader);
  EXPECT_EQ(domain.try_reclaim(), 1u);
}

TEST(Qsbr, DeadReaderIsIgnored) {
  QsbrDomain domain;
  SnapshotTable<int> table;
  ctrl::ReaderHandle reader = domain.register_reader();
  domain.resume(reader);
  table.publish(std::make_shared<const int>(1), domain);
  table.publish(std::make_shared<const int>(2), domain);
  reader.reset();  // worker torn down without a final quiesce
  EXPECT_EQ(domain.try_reclaim(), 1u);
  EXPECT_EQ(domain.backlog(), 0u);
}

TEST(Qsbr, GracePeriodIsPerReaderMinimum) {
  QsbrDomain domain;
  SnapshotTable<int> table;
  const ctrl::ReaderHandle fast = domain.register_reader();
  const ctrl::ReaderHandle slow = domain.register_reader();
  domain.resume(fast);
  domain.resume(slow);

  table.publish(std::make_shared<const int>(1), domain);
  table.publish(std::make_shared<const int>(2), domain);
  domain.quiesce(fast);  // only one of two readers passed the boundary
  EXPECT_EQ(domain.try_reclaim(), 0u) << "slowest reader bounds the horizon";
  domain.quiesce(slow);
  EXPECT_EQ(domain.try_reclaim(), 1u);
}

// ---------------------------------------------------------------------------
// RouteJournal
// ---------------------------------------------------------------------------

TEST(Journal, CoalescesFlapsPerKey) {
  auto tables = std::make_shared<ControlTables>();
  RouteJournal journal(tables);
  const fib::Prefix<32> p{fib::ipv4_from_u32(0x0A000000), 8};

  // Ten flaps of one prefix between publishes collapse to the final state.
  for (int i = 0; i < 5; ++i) {
    journal.add_route32(p, 1);
    journal.remove_route32(p);
  }
  journal.add_route32(p, 7);
  EXPECT_EQ(journal.pending(), 1u);
  EXPECT_EQ(journal.stats().ops_enqueued, 11u);
  EXPECT_EQ(journal.stats().ops_coalesced, 10u);

  EXPECT_EQ(journal.flush(), 1u);
  EXPECT_EQ(journal.stats().updates_applied, 1u) << "only the coalesced delta applies";
  const fib::Ipv4Lpm* fib = tables->fib32.read();
  ASSERT_NE(fib, nullptr);
  EXPECT_EQ(fib->lookup(fib::ipv4_from_u32(0x0A123456)), std::uint32_t{7});
}

TEST(Journal, FlushPublishesOnlyDirtyTables) {
  auto tables = std::make_shared<ControlTables>();
  RouteJournal journal(tables);
  EXPECT_EQ(journal.flush(), 0u);

  journal.add_route32({fib::ipv4_from_u32(0x0A000000), 8}, 1);
  journal.add_xid_route(fib::XidType::kAd, fib::Xid{}, 2);
  EXPECT_EQ(journal.flush(), 2u) << "fib32 and xid dirty; fib128/names untouched";
  EXPECT_EQ(tables->fib128.read(), nullptr);
  EXPECT_EQ(journal.flush(), 0u) << "nothing pending after a flush";
}

TEST(Journal, SeedClonesStaticTablesDeeply) {
  const auto seed_fib = fib::make_lpm<32>(fib::LpmEngine::kTreeBitmap);
  seed_fib->insert({fib::ipv4_from_u32(0x0A000000), 8}, 1);

  auto tables = std::make_shared<ControlTables>();
  RouteJournal journal(tables);
  journal.seed(seed_fib.get());

  // Mutating the static seed after the clone must not leak into the
  // published snapshot (that independence IS the shared-FIB race fix).
  seed_fib->insert({fib::ipv4_from_u32(0x0B000000), 8}, 9);
  const fib::Ipv4Lpm* snap = tables->fib32.read();
  ASSERT_NE(snap, nullptr);
  EXPECT_EQ(snap->lookup(fib::ipv4_from_u32(0x0A000001)), std::uint32_t{1});
  EXPECT_EQ(snap->lookup(fib::ipv4_from_u32(0x0B000001)), std::nullopt);
}

TEST(Journal, CopyOnWriteLeavesTheOldSnapshotIntact) {
  auto tables = std::make_shared<ControlTables>();
  RouteJournal journal(tables);
  journal.add_route32({fib::ipv4_from_u32(0x0A000000), 8}, 1);
  journal.flush();

  const ctrl::ReaderHandle reader = tables->register_reader();
  tables->domain.resume(reader);
  const fib::Ipv4Lpm* old_snap = tables->fib32.read();
  const std::uint64_t old_gen = old_snap->generation();

  journal.remove_route32({fib::ipv4_from_u32(0x0A000000), 8});
  journal.add_route32({fib::ipv4_from_u32(0x0C000000), 8}, 3);
  journal.flush();

  // The reader's raw pointer stays fully valid and unchanged until it
  // quiesces — that is the whole RCU contract.
  EXPECT_EQ(old_snap->lookup(fib::ipv4_from_u32(0x0A000001)), std::uint32_t{1});
  const fib::Ipv4Lpm* new_snap = tables->fib32.read();
  ASSERT_NE(new_snap, old_snap);
  EXPECT_EQ(new_snap->lookup(fib::ipv4_from_u32(0x0A000001)), std::nullopt);
  EXPECT_EQ(new_snap->lookup(fib::ipv4_from_u32(0x0C000001)), std::uint32_t{3});
  // Deltas bump the clone's generation past the base so generation-stamped
  // flow-cache verdicts from the old snapshot cannot be replayed.
  EXPECT_GT(new_snap->generation(), old_gen);

  EXPECT_EQ(tables->domain.backlog(), 1u);
  tables->domain.quiesce(reader);
  journal.flush();  // reclaim piggybacks on flush
  EXPECT_EQ(tables->domain.backlog(), 0u);
}

TEST(Journal, UnseededPublishesIpv6XidAndNameRoutes) {
  auto tables = std::make_shared<ControlTables>();
  RouteJournal journal(tables);
  const fib::Prefix<128> net6{fib::parse_ipv6("2001:db8::").value(), 32};
  const fib::Ipv6Addr in6 = fib::parse_ipv6("2001:db8::1").value();
  fib::Xid sid;
  sid.bytes[0] = 0x5A;
  fib::Xid hid;
  hid.bytes[0] = 0x4B;
  const fib::Name name = fib::Name::parse("/org/site");
  const fib::Name under = fib::Name::parse("/org/site/obj");

  journal.add_route128(net6, 6);
  journal.add_xid_route(fib::XidType::kSid, sid, 12);
  journal.set_xid_local(fib::XidType::kHid, hid);
  journal.add_name_route(name, 21);
  EXPECT_EQ(journal.flush(), 3u) << "fib128, xid and names dirty; fib32 untouched";
  EXPECT_EQ(tables->fib32.read(), nullptr);

  // Every table was built from scratch; lookups go through the snapshots.
  ASSERT_NE(tables->fib128.read(), nullptr);
  EXPECT_EQ(tables->fib128.read()->lookup(in6), std::uint32_t{6});
  EXPECT_EQ(tables->fib128.read()->lookup(fib::parse_ipv6("2001:db9::1").value()),
            std::nullopt);
  ASSERT_NE(tables->xid.read(), nullptr);
  EXPECT_EQ(tables->xid.read()->lookup(fib::XidType::kSid, sid), std::uint32_t{12});
  EXPECT_TRUE(tables->xid.read()->is_local(fib::XidType::kHid, hid));
  ASSERT_NE(tables->names.read(), nullptr);
  EXPECT_EQ(tables->names.read()->lookup(under), std::uint32_t{21});

  // Removes stay pending until the next flush, then the clones drop them.
  journal.remove_route128(net6);
  journal.remove_xid_route(fib::XidType::kSid, sid);
  journal.remove_name_route(name);
  EXPECT_EQ(tables->fib128.read()->lookup(in6), std::uint32_t{6});
  EXPECT_EQ(journal.flush(), 3u);
  EXPECT_EQ(tables->fib128.read()->lookup(in6), std::nullopt);
  EXPECT_EQ(tables->xid.read()->lookup(fib::XidType::kSid, sid), std::nullopt);
  EXPECT_TRUE(tables->xid.read()->is_local(fib::XidType::kHid, hid))
      << "local marks carry over into the clone";
  EXPECT_EQ(tables->names.read()->lookup(under), std::nullopt);
  EXPECT_EQ(journal.stats().updates_applied, 7u);
}

// ---------------------------------------------------------------------------
// The production LPM engine: every table a router gets by default — the
// netsim baseline environment, a journal built without a seed, and the
// control plane's published snapshots — is a tree bitmap.
// ---------------------------------------------------------------------------

template <std::size_t W>
bool is_tree_bitmap(const fib::LpmTable<W>* table) {
  return dynamic_cast<const fib::TreeBitmap<W>*>(table) != nullptr;
}

TEST(DefaultEngine, BasicEnvBuildsTreeBitmaps) {
  const core::RouterEnv env = netsim::make_basic_env(1);
  EXPECT_TRUE(is_tree_bitmap(env.fib32.get()));
  EXPECT_TRUE(is_tree_bitmap(env.fib128.get()));
}

TEST(DefaultEngine, UnseededJournalBuildsTreeBitmaps) {
  auto tables = std::make_shared<ControlTables>();
  RouteJournal journal(tables);
  journal.add_route32({fib::ipv4_from_u32(0x0A000000), 8}, 1);
  journal.add_route128({fib::parse_ipv6("2001:db8::").value(), 32}, 2);
  ASSERT_EQ(journal.flush(), 2u);
  EXPECT_TRUE(is_tree_bitmap(tables->fib32.read()));
  EXPECT_TRUE(is_tree_bitmap(tables->fib128.read()));
}

TEST(DefaultEngine, ControlPlanePublishesTreeBitmaps) {
  // One node seeded from make_basic_env, one with no static FIBs at all
  // (its control-built table starts from scratch).
  netsim::Network net;
  const auto registry = netsim::make_default_registry();
  netsim::DipRouterNode seeded(netsim::make_basic_env(1), registry);
  core::RouterEnv bare_env = netsim::make_basic_env(2);
  bare_env.fib32.reset();
  bare_env.fib128.reset();
  netsim::DipRouterNode bare(std::move(bare_env), registry);
  net.add_node(seeded);
  net.add_node(bare);
  net.connect(seeded, bare);

  ctrl::ControlPlane cp(net);
  cp.manage(seeded);
  cp.manage(bare);
  cp.add_destination({fib::ipv4_from_u32(0x0A000000), 8}, bare.id(), 99);
  cp.refresh(/*force=*/true);

  EXPECT_TRUE(is_tree_bitmap(seeded.env().control->fib32.read()));
  EXPECT_TRUE(is_tree_bitmap(seeded.env().control->fib128.read()));
  EXPECT_TRUE(is_tree_bitmap(bare.env().control->fib32.read()));
}

// ---------------------------------------------------------------------------
// Shared SPF (ctrl::first_hops) against a brute-force all-pairs BFS oracle,
// directly and through the ControlPlane's route installation.
// ---------------------------------------------------------------------------

/// Hop distances over `adj` from every node that appears in it (as key or
/// neighbour); dist[a][b] absent = unreachable. Leaves without an entry
/// have no outgoing edges, so they are never transit.
std::map<std::uint32_t, std::map<std::uint32_t, std::size_t>> all_pairs(
    const ctrl::Adjacency& adj) {
  std::set<std::uint32_t> nodes;
  for (const auto& [u, ns] : adj) {
    nodes.insert(u);
    nodes.insert(ns.begin(), ns.end());
  }
  std::map<std::uint32_t, std::map<std::uint32_t, std::size_t>> dist;
  for (const std::uint32_t src : nodes) {
    auto& d = dist[src];
    d[src] = 0;
    std::vector<std::uint32_t> layer{src};
    for (std::size_t hops = 1; !layer.empty(); ++hops) {
      std::vector<std::uint32_t> next;
      for (const std::uint32_t u : layer) {
        const auto it = adj.find(u);
        if (it == adj.end()) continue;
        for (const std::uint32_t v : it->second) {
          if (d.emplace(v, hops).second) next.push_back(v);
        }
      }
      layer = std::move(next);
    }
  }
  return dist;
}

/// The oracle's first hop from `self` to `dest`: the lowest-id neighbour
/// at distance d - 1 from `dest`; nullopt if `dest` is unreachable.
std::optional<std::uint32_t> oracle_first_hop(
    const ctrl::Adjacency& adj,
    const std::map<std::uint32_t, std::map<std::uint32_t, std::size_t>>& dist,
    std::uint32_t self, std::uint32_t dest) {
  const auto d = dist.at(self).find(dest);
  if (d == dist.at(self).end() || d->second == 0) return std::nullopt;
  for (const std::uint32_t n : adj.at(self)) {  // ascending
    const auto& from_n = dist.at(n);
    const auto dn = from_n.find(dest);
    if (dn != from_n.end() && dn->second + 1 == d->second) return n;
  }
  ADD_FAILURE() << "no neighbour on a shortest path";
  return std::nullopt;
}

TEST(Spf, FirstHopsMatchAllPairsOracleOnRandomGraphs) {
  crypto::Xoshiro256 rng(0x5BF);
  for (int graph = 0; graph < 200; ++graph) {
    // Scattered node ids so id order differs from creation order; routed
    // nodes link both ways (with repeats: parallel links), leaves only
    // appear as someone's neighbour.
    const std::size_t routed = 2 + rng.below(10);
    std::vector<std::uint32_t> ids;
    while (ids.size() < routed) {
      const auto id = static_cast<std::uint32_t>(1 + rng.below(60));
      if (std::find(ids.begin(), ids.end(), id) == ids.end()) ids.push_back(id);
    }
    ctrl::Adjacency adj;
    for (const std::uint32_t id : ids) adj[id];
    const std::size_t links = rng.below(routed * 2 + 1);
    for (std::size_t l = 0; l < links; ++l) {
      const std::uint32_t a = ids[rng.below(ids.size())];
      const std::uint32_t b = ids[rng.below(ids.size())];
      if (a == b) continue;
      adj[a].insert(b);
      adj[b].insert(a);
    }
    for (std::uint32_t leaf = 100; leaf < 100 + rng.below(4); ++leaf) {
      adj[ids[rng.below(ids.size())]].insert(leaf);
    }

    const auto dist = all_pairs(adj);
    for (const std::uint32_t self : ids) {
      const auto hops = ctrl::first_hops(adj, self);
      for (const auto& [dest, d] : dist.at(self)) {
        const auto want = oracle_first_hop(adj, dist, self, dest);
        const auto got = hops.find(dest);
        if (!want) {
          EXPECT_EQ(got, hops.end()) << "graph " << graph << " " << self << "->" << dest;
          continue;
        }
        ASSERT_NE(got, hops.end()) << "graph " << graph << " " << self << "->" << dest;
        EXPECT_EQ(got->second, *want) << "graph " << graph << " " << self << "->" << dest;
      }
      for (const auto& [dest, hop] : hops) {
        EXPECT_TRUE(dist.at(self).contains(dest)) << "routed an unreachable node";
      }
    }
  }
}

TEST(ControlPlane, InstalledRoutesMatchSpfOracleOnRandomGraphs) {
  // Managed routers with random (parallel) links, plus unmanaged nodes: host
  // leaves and unmanaged routers bridging two managed ones. Every managed
  // router anchors 10.<id>/16. Each installed route must leave through the
  // lowest face toward the oracle's first hop, and no route may cross an
  // unmanaged node.
  crypto::Xoshiro256 rng(0xC7A1);
  const auto registry = netsim::make_default_registry();
  constexpr core::FaceId kDelivery = 999;
  const auto prefix_of = [](netsim::NodeId n) {
    return fib::Prefix<32>{fib::ipv4_from_u32((10u << 24) | (n << 16)), 16};
  };
  for (int graph = 0; graph < 200; ++graph) {
    netsim::Network net;
    std::vector<std::unique_ptr<netsim::DipRouterNode>> routers;
    std::vector<std::unique_ptr<netsim::HostNode>> hosts;
    const std::size_t managed = 2 + rng.below(6);
    const std::size_t unmanaged = rng.below(3);
    for (std::size_t i = 0; i < managed + unmanaged; ++i) {
      auto env = netsim::make_basic_env(static_cast<std::uint32_t>(i));
      env.default_egress.reset();
      routers.push_back(std::make_unique<netsim::DipRouterNode>(std::move(env), registry));
      net.add_node(*routers.back());
    }
    const auto pick = [&] { return rng.below(managed); };
    ctrl::Adjacency adj;
    std::map<std::pair<netsim::NodeId, netsim::NodeId>, netsim::FaceId> lowest_face;
    const std::size_t links = rng.below(managed * 2 + 1);
    for (std::size_t l = 0; l < links; ++l) {
      const std::size_t a = pick();
      const std::size_t b = pick();
      if (a == b) continue;
      const auto [fa, fb] = net.connect(*routers[a], *routers[b]);
      const auto ida = routers[a]->id();
      const auto idb = routers[b]->id();
      adj[ida].insert(idb);
      adj[idb].insert(ida);
      lowest_face.emplace(std::pair{ida, idb}, fa);  // first connect = lowest face
      lowest_face.emplace(std::pair{idb, ida}, fb);
    }
    for (std::size_t u = managed; u < managed + unmanaged; ++u) {
      net.connect(*routers[u], *routers[pick()]);
      net.connect(*routers[u], *routers[pick()]);
    }
    for (std::size_t h = 0; h < rng.below(3); ++h) {
      auto& host = *hosts.emplace_back(std::make_unique<netsim::HostNode>());
      net.add_node(host);
      net.connect(host, *routers[pick()]);
    }

    ctrl::ControlPlane cp(net);
    for (std::size_t i = 0; i < managed; ++i) {
      cp.manage(*routers[i]);
      cp.add_destination(prefix_of(routers[i]->id()), routers[i]->id(), kDelivery);
    }
    cp.refresh(/*force=*/true);

    for (std::size_t i = 0; i < managed; ++i) adj[routers[i]->id()];
    const auto dist = all_pairs(adj);
    for (std::size_t i = 0; i < managed; ++i) {
      const netsim::NodeId self = routers[i]->id();
      const fib::Ipv4Lpm* fib = routers[i]->env().control->fib32.read();
      for (std::size_t j = 0; j < managed; ++j) {
        const netsim::NodeId dest = routers[j]->id();
        const fib::Ipv4Addr probe =
            fib::ipv4_from_u32(fib::ipv4_to_u32(prefix_of(dest).addr) | 1);
        const auto nh = fib != nullptr ? fib->lookup(probe) : std::nullopt;
        if (dest == self) {
          EXPECT_EQ(nh, kDelivery) << "graph " << graph;
          continue;
        }
        const auto want = oracle_first_hop(adj, dist, self, dest);
        if (!want) {
          EXPECT_EQ(nh, std::nullopt) << "graph " << graph << " " << self << "->" << dest;
          continue;
        }
        ASSERT_TRUE(nh.has_value()) << "graph " << graph << " " << self << "->" << dest;
        EXPECT_EQ(*nh, lowest_face.at({self, *want}))
            << "graph " << graph << " " << self << "->" << dest;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// ControlPlane: convergence under link failure (end to end in netsim).
//
// Diamond topology, all four routers managed:
//
//   source — A(0) — B(1) — D(3) — dest        primary (B has the lower id)
//              \— C(2) ——/                    backup
//
// The A—B link runs a blackout schedule (period 1 ms, dark for the first
// 300 us of each window), so the timeline is: dark at t=0 (routes install
// via C), up at 300 us (routes swap to B), dark again at 1 ms — packets in
// flight blackhole until the control plane detects the failure and
// republishes via C — then up at 1.3 ms. Polls every 70 us, deliberately
// coprime with the schedule so detection latency is nonzero.
// ---------------------------------------------------------------------------

TEST(ControlPlane, ConvergesAfterBlackoutAndResumesDelivery) {
  constexpr SimDuration kPoll = 70 * kMicrosecond;
  constexpr SimTime kDown2 = 1 * kMillisecond;  // second blackout window start

  netsim::Network net;
  const auto registry = netsim::make_default_registry();
  std::vector<std::unique_ptr<netsim::DipRouterNode>> routers;
  for (std::uint32_t i = 0; i < 4; ++i) {
    auto env = netsim::make_basic_env(i);
    env.default_egress.reset();  // no route means blackhole, not fallback
    routers.push_back(std::make_unique<netsim::DipRouterNode>(std::move(env), registry));
    net.add_node(*routers[i]);
  }
  auto& a = *routers[0];
  auto& b = *routers[1];
  auto& c = *routers[2];
  auto& d = *routers[3];

  netsim::LinkParams flaky;
  flaky.faults.blackout_period = 1 * kMillisecond;
  flaky.faults.blackout_duration = 300 * kMicrosecond;
  net.connect(a, b, flaky);
  const auto [b_to_d, d_from_b] = net.connect(b, d);
  (void)b_to_d;
  (void)d_from_b;
  net.connect(a, c);
  net.connect(c, d);

  netsim::HostNode source;
  std::vector<SimTime> arrivals;
  netsim::HostNode dest([&arrivals](netsim::FaceId, netsim::PacketBytes, SimTime at) {
    arrivals.push_back(at);
  });
  net.add_node(source);
  net.add_node(dest);
  const auto [source_face, a_host_face] = net.connect(source, a);
  (void)a_host_face;
  const auto [d_delivery_face, dest_face] = net.connect(d, dest);
  (void)dest_face;

  ctrl::ControlPlane cp(net, ctrl::ControlPlaneConfig{.poll_interval = kPoll});
  for (auto& r : routers) cp.manage(*r);
  cp.add_destination({fib::ipv4_from_u32(0x0A000000), 8}, d.id(), d_delivery_face);

  // One packet every 20 us until 1.9 ms (the horizon stays short of the
  // third blackout window at 2 ms).
  for (SimTime t = 5 * kMicrosecond; t < 1900 * kMicrosecond; t += 20 * kMicrosecond) {
    net.loop().schedule_at(t, [&source, source_face] {
      source.send(source_face, dip32_packet(0x0A000001));
    });
  }
  cp.start(/*horizon=*/1950 * kMicrosecond);
  net.run();

  const ctrl::ControlPlaneStats& st = cp.stats();
  EXPECT_EQ(st.link_down_events, 1u);  // t=0 darkness is initial state, not an event
  EXPECT_EQ(st.link_up_events, 2u);
  EXPECT_EQ(st.convergences, 3u);
  EXPECT_GT(st.last_convergence_ns, 0u);
  EXPECT_LE(st.last_convergence_ns, kPoll)
      << "detection + republish must complete within one poll";

  // The failure actually bit (packets in flight blackholed), and every
  // blackhole predates the republish: zero post-convergence blackholes.
  EXPECT_GE(net.stats().blackholed, 1u);
  for (const netsim::FaultEvent& e : net.fault_trace()) {
    if (e.kind != netsim::FaultKind::kBlackout) continue;
    EXPECT_GE(e.at, kDown2);
    EXPECT_LT(e.at, kDown2 + kPoll + 10 * kMicrosecond)
        << "traffic kept flowing into the dark link after convergence";
  }

  // Delivery resumed on the backup path after the failure.
  std::size_t before = 0;
  std::size_t after = 0;
  for (const SimTime at : arrivals) {
    if (at < kDown2) ++before;
    if (at >= kDown2 + kPoll) ++after;
  }
  EXPECT_GT(before, 0u);
  EXPECT_GT(after, 20u) << "backup path must carry the traffic after republish";

  // A's routes flapped C -> B -> C -> B: initial publish + three swaps.
  ASSERT_NE(cp.journal(a.id()), nullptr);
  EXPECT_EQ(cp.journal(a.id())->stats().snapshots_published, 4u);
  // B/C/D's routes never change after the initial install.
  EXPECT_EQ(cp.journal(d.id())->stats().snapshots_published, 1u);

  // All grace periods eventually drain: the simulator thread quiesced after
  // the last burst, so one more reclaim round frees every retired snapshot.
  cp.journal(a.id())->flush();
  EXPECT_EQ(a.env().control->domain.backlog(), 0u);
  EXPECT_GE(a.env().control->domain.reclaimed_total(), 3u);

  // dip_ctrl_* exposition (catalogue in docs/OBSERVABILITY.md).
  telemetry::StatsWriter w;
  cp.write_stats(w);
  const std::string& text = w.text();
  EXPECT_NE(text.find("dip_ctrl_convergences_total 3"), std::string::npos) << text;
  EXPECT_NE(text.find("dip_ctrl_link_events_total{dir=\"down\"} 1"), std::string::npos);
  EXPECT_NE(text.find("dip_ctrl_snapshot_generation{node=\"0\"}"), std::string::npos);
}

TEST(ControlPlane, PublishIntervalRateLimitsButConverges) {
  // Same diamond, but publishes are rate-limited well above the poll rate:
  // deltas decided inside the window coalesce and land in one publish.
  netsim::Network net;
  const auto registry = netsim::make_default_registry();
  std::vector<std::unique_ptr<netsim::DipRouterNode>> routers;
  for (std::uint32_t i = 0; i < 4; ++i) {
    auto env = netsim::make_basic_env(i);
    env.default_egress.reset();
    routers.push_back(std::make_unique<netsim::DipRouterNode>(std::move(env), registry));
    net.add_node(*routers[i]);
  }
  netsim::LinkParams flaky;
  flaky.faults.blackout_period = 200 * kMicrosecond;
  flaky.faults.blackout_duration = 100 * kMicrosecond;
  net.connect(*routers[0], *routers[1], flaky);
  net.connect(*routers[1], *routers[3]);
  net.connect(*routers[0], *routers[2]);
  net.connect(*routers[2], *routers[3]);

  ctrl::ControlPlane cp(net, ctrl::ControlPlaneConfig{
                                 .poll_interval = 30 * kMicrosecond,
                                 .publish_interval = 500 * kMicrosecond});
  for (auto& r : routers) cp.manage(*r);
  cp.add_destination({fib::ipv4_from_u32(0x0A000000), 8}, routers[3]->id(), 99);
  cp.start(/*horizon=*/2 * kMillisecond);
  net.run();

  const ctrl::ControlPlaneStats& st = cp.stats();
  // ~9 transitions in 2 ms, but publishes stay bounded by the interval.
  EXPECT_GE(st.link_down_events + st.link_up_events, 8u);
  EXPECT_LE(st.publishes, 5u) << "publish_interval must bound the publish rate";
  EXPECT_GE(st.publishes, 2u);
  const ctrl::JournalStats& js = cp.journal(routers[0]->id())->stats();
  EXPECT_GT(js.ops_coalesced, 0u)
      << "flaps inside the publish window must coalesce in the journal";
}

// ---------------------------------------------------------------------------
// Shared-FIB race regression (TSan leg): RouterPool workers forward off the
// snapshots while the control thread churns routes and publishes. Before
// src/ctrl/ this exact pattern — post-start mutation of a shared fib32 —
// was a data race; through SnapshotTable it must be TSan-clean AND every
// retired table must eventually be reclaimed.
// ---------------------------------------------------------------------------

TEST(CtrlRace, ConcurrentChurnAndForwardingIsCleanAndReclaims) {
  auto tables = std::make_shared<ControlTables>();
  RouteJournal journal(tables);
  const auto seed_fib = fib::make_lpm<32>(fib::LpmEngine::kTreeBitmap);
  seed_fib->insert({fib::ipv4_from_u32(0x0A000000), 8}, 1);
  journal.seed(seed_fib.get());

  const auto registry = netsim::make_default_registry();
  const auto envf = [&tables](std::size_t worker) {
    core::RouterEnv env;
    env.node_id = static_cast<std::uint32_t>(worker);
    env.control = tables;
    env.ctrl_reader = tables->register_reader();
    // Flow cache on: churned snapshots bump the generation, so memoized
    // verdicts from a retired table must invalidate, concurrently.
    env.flow_cache = std::make_unique<core::FlowCache>();
    env.default_egress.reset();
    return env;
  };
  core::RouterPoolConfig cfg;
  cfg.workers = 2;

  {
    core::RouterPool pool(registry.get(), envf, cfg);
    const fib::Prefix<32> flap{fib::ipv4_from_u32(0x0A400000), 10};
    std::uint32_t salt = 0;
    for (int round = 0; round < 100; ++round) {
      for (int i = 0; i < 16; ++i) {
        pool.submit(dip32_packet(0x0A000000 + (salt++ & 0x7fffff)), 0,
                    static_cast<SimTime>(round) * kMicrosecond);
      }
      // Concurrent churn: flap a more-specific route while workers forward.
      if (round % 2 == 0) {
        journal.add_route32(flap, 2);
      } else {
        journal.remove_route32(flap);
      }
      journal.flush();
    }
    pool.drain();
    EXPECT_GE(tables->domain.reclaimed_total(), 1u)
        << "grace periods must elapse while traffic flows";
    pool.stop();
  }

  // Workers gone: a final round reclaims everything still retired.
  journal.flush();
  EXPECT_EQ(tables->domain.backlog(), 0u);
  const fib::Ipv4Lpm* fib = tables->fib32.read();
  ASSERT_NE(fib, nullptr);
  EXPECT_EQ(fib->lookup(fib::ipv4_from_u32(0x0A000001)), std::uint32_t{1});
}

}  // namespace
}  // namespace dip
