// Shortest-path first hops — the one SPF every route computation shares.
//
// Hop-count metric, deterministic tie-breaks: for each destination the
// result names the lowest-id neighbour of `self` that starts a shortest
// path. netsim's ControlPlane runs it once per managed node over the usable
// managed links, the UDP mesh over the edges both endpoints advertise in
// their LSAs, and bootstrap::AsGraph walks it hop by hop for AS paths.
//
// Why one BFS is enough: neighbours are expanded in ascending id order and
// the first node to claim a destination wins, so each BFS layer is queued
// in non-decreasing first-hop order and the first claim carries the
// smallest first hop among all shortest paths.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <set>

namespace dip::ctrl {

/// node -> neighbours reachable over one usable link (parallel links
/// collapse into one entry). A node without an entry has no usable
/// outgoing link: it can be a destination but is never used as transit.
using Adjacency = std::map<std::uint32_t, std::set<std::uint32_t>>;

/// destination -> first-hop neighbour of `self` on a shortest path (the
/// lowest-id one among ties). `self` and unreachable nodes are absent.
[[nodiscard]] inline std::map<std::uint32_t, std::uint32_t> first_hops(
    const Adjacency& adj, std::uint32_t self) {
  std::map<std::uint32_t, std::uint32_t> first_hop;
  std::deque<std::uint32_t> frontier{self};
  while (!frontier.empty()) {
    const std::uint32_t u = frontier.front();
    frontier.pop_front();
    const auto it = adj.find(u);
    if (it == adj.end()) continue;
    for (const std::uint32_t v : it->second) {
      if (v == self || first_hop.contains(v)) continue;
      first_hop[v] = u == self ? v : first_hop.at(u);
      frontier.push_back(v);
    }
  }
  return first_hop;
}

}  // namespace dip::ctrl
