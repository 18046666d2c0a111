// Mesh control plane: LSDB → shortest-path routes → per-node RouteJournal.
//
// Each MeshRouter runs the PR-5 control machinery (ControlTables + a
// coalescing RouteJournal); this header is the glue that turns the gossiped
// link-state database into published FIB snapshots. Route computation is
// the shared ctrl::first_hops SPF (hop count, ties broken toward the
// smallest next-hop node id), and an edge only exists when *both*
// endpoints advertise it — an asymmetric view during link failure kills the
// edge mesh-wide as soon as either side's new LSA lands.
//
// Address plan: node n owns 10.(n>>8).(n&255).0/24 and answers at host .1,
// so a /24 route per node covers Internet-style longest-prefix matching
// without per-host routes.
#pragma once

#include <cstdint>
#include <map>

#include "dip/bootstrap/propagation.hpp"
#include "dip/fib/address.hpp"
#include "dip/mesh/node.hpp"

namespace dip::mesh {

/// Host address of node `n` (10.x.y.1).
[[nodiscard]] fib::Ipv4Addr addr_of(std::uint32_t node) noexcept;

/// The /24 prefix node `n` originates (10.x.y.0/24).
[[nodiscard]] fib::Prefix<32> prefix_of(std::uint32_t node) noexcept;

/// Next hops from `self` over the LSDB's both-endpoints edges (the shared
/// ctrl::first_hops SPF): destination node -> neighbor node id of the first
/// hop. Unreachable destinations (and `self`) are absent. Deterministic for
/// a given LSDB.
[[nodiscard]] std::map<std::uint32_t, std::uint32_t> compute_next_hops(
    const LinkStateDb& lsdb, std::uint32_t self);

/// Recompute and publish `router`'s FIB from its own LSDB: every reachable
/// node's /24 toward the face of its next hop, the router's own /24 toward
/// `local_face`, and a route *removal* for every known-but-unreachable
/// node (convergence under link failure). Flushes the journal (one RCU
/// publish). Returns the number of destinations now routed.
std::size_t publish_routes(MeshRouter& router, FaceId local_face);

/// The gossiped view as a bootstrap::AsGraph (node id = AS number), for
/// end-to-end capability queries over the discovered topology.
[[nodiscard]] bootstrap::AsGraph as_graph_of(const LinkStateDb& lsdb);

}  // namespace dip::mesh
