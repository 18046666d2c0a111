#include "dip/mesh/control.hpp"

#include <algorithm>

#include "dip/ctrl/spf.hpp"

namespace dip::mesh {

fib::Ipv4Addr addr_of(std::uint32_t node) noexcept {
  return fib::ipv4_from_u32((10u << 24) | ((node & 0xFFFFu) << 8) | 1u);
}

fib::Prefix<32> prefix_of(std::uint32_t node) noexcept {
  fib::Prefix<32> p{fib::ipv4_from_u32((10u << 24) | ((node & 0xFFFFu) << 8)), 24};
  p.normalize();
  return p;
}

namespace {

/// Both endpoints must advertise the edge (see header comment).
[[nodiscard]] bool symmetric_edge(const LinkStateDb& lsdb, std::uint32_t a,
                                  std::uint32_t b) {
  const auto ia = lsdb.find(a);
  const auto ib = lsdb.find(b);
  if (ia == lsdb.end() || ib == lsdb.end()) return false;
  const auto& na = ia->second.neighbors;
  const auto& nb = ib->second.neighbors;
  return std::binary_search(na.begin(), na.end(), b) &&
         std::binary_search(nb.begin(), nb.end(), a);
}

/// The LSDB as an SPF adjacency: only edges both endpoints advertise.
[[nodiscard]] ctrl::Adjacency adjacency_of(const LinkStateDb& lsdb) {
  ctrl::Adjacency adj;
  for (const auto& [origin, lsa] : lsdb) {
    for (const std::uint32_t n : lsa.neighbors) {
      if (symmetric_edge(lsdb, origin, n)) adj[origin].insert(n);
    }
  }
  return adj;
}

}  // namespace

std::map<std::uint32_t, std::uint32_t> compute_next_hops(const LinkStateDb& lsdb,
                                                         std::uint32_t self) {
  return ctrl::first_hops(adjacency_of(lsdb), self);
}

std::size_t publish_routes(MeshRouter& router, FaceId local_face) {
  const std::uint32_t self = router.node_id();
  const auto hops = compute_next_hops(router.lsdb(), self);
  ctrl::RouteJournal& journal = router.journal();

  std::size_t routed = 0;
  journal.add_route32(prefix_of(self), local_face);
  ++routed;
  for (const auto& [origin, lsa] : router.lsdb()) {
    if (origin == self) continue;
    const auto hop = hops.find(origin);
    const auto face = hop != hops.end()
                          ? router.face_toward(hop->second)
                          : std::nullopt;
    if (face) {
      journal.add_route32(prefix_of(origin), *face);
      ++routed;
    } else {
      journal.remove_route32(prefix_of(origin));  // unreachable: withdraw
    }
  }
  journal.flush();
  return routed;
}

bootstrap::AsGraph as_graph_of(const LinkStateDb& lsdb) {
  bootstrap::AsGraph graph;
  for (const auto& [origin, lsa] : lsdb) {
    graph.add_as(origin, lsa.capabilities);
  }
  for (const auto& [origin, neighbors] : adjacency_of(lsdb)) {
    for (const std::uint32_t n : neighbors) {
      if (origin < n) (void)graph.add_link(origin, n);
    }
  }
  return graph;
}

}  // namespace dip::mesh
