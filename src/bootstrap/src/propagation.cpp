#include "dip/bootstrap/propagation.hpp"

#include <algorithm>

#include "dip/ctrl/spf.hpp"

namespace dip::bootstrap {

void AsGraph::add_as(AsNumber asn, CapabilitySet capabilities) {
  nodes_[asn].capabilities = std::move(capabilities);
}

bool AsGraph::add_link(AsNumber a, AsNumber b) {
  if (!nodes_.contains(a) || !nodes_.contains(b) || a == b) return false;
  auto& na = nodes_[a].neighbors;
  auto& nb = nodes_[b].neighbors;
  if (std::find(na.begin(), na.end(), b) == na.end()) na.push_back(b);
  if (std::find(nb.begin(), nb.end(), a) == nb.end()) nb.push_back(a);
  return true;
}

const CapabilitySet* AsGraph::capabilities(AsNumber asn) const {
  const auto it = nodes_.find(asn);
  return it == nodes_.end() ? nullptr : &it->second.capabilities;
}

std::vector<AsNumber> AsGraph::shortest_path(AsNumber from, AsNumber to) const {
  if (!nodes_.contains(from) || !nodes_.contains(to)) return {};
  ctrl::Adjacency adj;
  for (const auto& [asn, node] : nodes_) {
    adj[asn].insert(node.neighbors.begin(), node.neighbors.end());
  }
  // Walk the shared SPF's first hops; each step is one hop closer to `to`.
  std::vector<AsNumber> path{from};
  while (path.back() != to) {
    const auto hops = ctrl::first_hops(adj, path.back());
    const auto hop = hops.find(to);
    if (hop == hops.end()) return {};
    path.push_back(hop->second);
  }
  return path;
}

std::optional<CapabilitySet> AsGraph::path_capabilities(
    std::span<const AsNumber> path) const {
  if (path.empty()) return std::nullopt;
  std::optional<CapabilitySet> result;
  for (AsNumber asn : path) {
    const CapabilitySet* caps = capabilities(asn);
    if (caps == nullptr) return std::nullopt;
    result = result ? result->intersect(*caps) : *caps;
  }
  return result;
}

std::optional<CapabilitySet> AsGraph::end_to_end(AsNumber from, AsNumber to) const {
  const auto path = shortest_path(from, to);
  if (path.empty()) return std::nullopt;
  return path_capabilities(path);
}

}  // namespace dip::bootstrap
