#include "dip/ctrl/control_plane.hpp"

#include <algorithm>

#include "dip/ctrl/spf.hpp"

namespace dip::ctrl {

ControlPlane::ControlPlane(netsim::Network& net, ControlPlaneConfig config)
    : net_(net), config_(config) {}

void ControlPlane::manage(netsim::DipRouterNode& node) {
  auto tables = std::make_shared<ControlTables>();
  auto journal = std::make_unique<RouteJournal>(tables);

  core::RouterEnv& env = node.env();
  // Carry the node's statically installed state into the first snapshots,
  // then retire the static pointers from the forwarding path.
  journal->seed(env.fib32.get(), env.fib128.get(), env.xid_table.get(),
                nullptr);
  env.control = tables;
  env.ctrl_reader = tables->register_reader();
  // The simulator thread is this node's reader; join the protocol now so
  // grace periods start tracking it.
  tables->domain.resume(env.ctrl_reader);

  Managed m;
  m.node = &node;
  m.journal = std::move(journal);
  managed_[node.id()] = std::move(m);
}

void ControlPlane::add_destination(fib::Prefix<32> prefix,
                                   netsim::NodeId anchor,
                                   core::FaceId delivery_face) {
  prefix.normalize();
  destinations_.push_back(Destination{prefix, anchor, delivery_face});
}

RouteJournal* ControlPlane::journal(netsim::NodeId node) {
  const auto it = managed_.find(node);
  return it == managed_.end() ? nullptr : it->second.journal.get();
}

std::map<std::pair<netsim::NodeId, netsim::FaceId>, bool>
ControlPlane::scan_links() const {
  std::map<std::pair<netsim::NodeId, netsim::FaceId>, bool> links;
  const SimTime now = net_.now();
  for (const auto& [id, m] : managed_) {
    const std::size_t faces = net_.face_count(id);
    for (netsim::FaceId f = 0; f < faces; ++f) {
      const netsim::LinkParams* params = net_.link_params(id, f);
      if (params == nullptr) continue;
      const auto peer = net_.peer_of(*m.node, f);
      if (!peer || !managed_.contains(peer->first)) continue;  // host port
      const netsim::LinkParams* back = net_.link_params(peer->first, peer->second);
      // Usable only if neither transmit half is inside a blackout window —
      // one dark half already blackholes a direction.
      const bool usable = !params->faults.in_blackout(now) &&
                          (back == nullptr || !back->faults.in_blackout(now));
      links[{id, f}] = usable;
    }
  }
  return links;
}

void ControlPlane::refresh(bool force) {
  ++stats_.polls;
  const SimTime now = net_.now();
  auto current = scan_links();

  bool changed = force || !have_link_state_;
  // Links that vanished since the last scan (face torn down) change the
  // topology even though no key in `current` flips.
  if (!changed) {
    for (const auto& [key, usable] : link_state_) {
      if (!current.contains(key)) {
        changed = true;
        break;
      }
    }
  }
  for (const auto& [key, usable] : current) {
    const auto prev = link_state_.find(key);
    if (prev == link_state_.end()) {
      // First sighting (a face connected after start()): there is no
      // up/down transition to account, but routes over it don't exist yet
      // — recompute or the new link stays unrouted forever.
      changed = true;
      continue;
    }
    if (prev->second == usable) continue;
    changed = true;
    // Both halves of a physical link transition together (usable is
    // computed symmetrically); account the event once, at the lower-id
    // endpoint.
    const auto peer = net_.peer_of(*managed_.at(key.first).node, key.second);
    if (peer && peer->first < key.first &&
        current.contains({peer->first, peer->second})) {
      continue;
    }
    // Reconstruct the transition instant from the blackout schedule of
    // whichever transmit half is (or was) dark: windows are
    // [k*period, k*period + duration), so with poll_interval shorter than
    // both the window and the gap, the current period holds the event.
    const netsim::LinkParams* halves[2] = {
        net_.link_params(key.first, key.second), nullptr};
    if (peer) {
      halves[1] = net_.link_params(peer->first, peer->second);
    }
    SimTime event = now;
    for (const netsim::LinkParams* p : halves) {
      if (p == nullptr || p->faults.blackout_period == 0 ||
          p->faults.blackout_duration == 0) {
        continue;
      }
      const SimDuration period = p->faults.blackout_period;
      const SimDuration duration = p->faults.blackout_duration;
      if (!usable && p->faults.in_blackout(now)) {
        event = std::min(event, (now / period) * period);  // window start
      } else if (usable && now % period >= duration) {
        event = std::min(event, (now / period) * period + duration);  // end
      }
    }
    if (usable) {
      ++stats_.link_up_events;
    } else {
      ++stats_.link_down_events;
    }
    stats_.last_event_time = event;
    convergence_pending_ = true;
  }
  link_state_ = std::move(current);
  have_link_state_ = true;

  if (changed) recompute();
  flush_journals();
}

void ControlPlane::recompute() {
  ++stats_.recomputes;

  // The SPF adjacency over usable managed-to-managed links, and per
  // (node, neighbour) the lowest usable face (link_state_ iterates faces in
  // ascending order, so the first one seen wins among parallel links).
  Adjacency adj;
  std::map<std::pair<netsim::NodeId, netsim::NodeId>, netsim::FaceId> face_to;
  for (const auto& [key, usable] : link_state_) {
    if (!usable) continue;
    const auto peer = net_.peer_of(*managed_.at(key.first).node, key.second);
    if (!peer) continue;
    adj[key.first].insert(peer->first);
    face_to.emplace(std::pair{key.first, peer->first}, key.second);
  }

  // Desired route set per node across all destinations: one SPF per
  // managed node; unreachable anchors get no route (blackhole).
  std::map<netsim::NodeId, std::map<fib::Prefix<32>, fib::NextHop>> desired;
  for (const auto& [id, m] : managed_) {
    const auto hops = first_hops(adj, id);
    auto& want = desired[id];
    for (const Destination& dest : destinations_) {
      if (!managed_.contains(dest.anchor)) continue;
      if (id == dest.anchor) {
        want[dest.prefix] = dest.delivery_face;
        continue;
      }
      const auto hop = hops.find(dest.anchor);
      if (hop != hops.end()) want[dest.prefix] = face_to.at({id, hop->second});
    }
  }

  // Diff against what each journal last saw; enqueue only real changes.
  for (auto& [id, m] : managed_) {
    const auto& want = desired[id];
    for (const auto& [prefix, nh] : want) {
      const auto have = m.desired.find(prefix);
      if (have == m.desired.end() || have->second != nh) {
        m.journal->add_route32(prefix, nh);
        ++stats_.routes_installed;
      }
    }
    for (const auto& [prefix, nh] : m.desired) {
      if (!want.contains(prefix)) {
        m.journal->remove_route32(prefix);
        ++stats_.routes_withdrawn;
      }
    }
    m.desired = want;
  }
}

void ControlPlane::flush_journals() {
  const SimTime now = net_.now();
  // This tick runs on the simulator thread — the same thread that drives
  // every managed node's scalar Router — so each node's sim-thread reader
  // is between bursts right now and provably holds no snapshot pointers.
  // Announce quiescence on their behalf: a traffic-idle node otherwise
  // never quiesces (Router only announces at burst boundaries), pinning
  // its resume-time version and growing the retired backlog unboundedly.
  for (const auto& [id, m] : managed_) m.node->env().ctrl_quiesce();
  bool any_dirty = false;
  for (const auto& [id, m] : managed_) any_dirty |= m.journal->dirty();

  const bool rate_limited = ever_published_ && config_.publish_interval > 0 &&
                            now - last_publish_ < config_.publish_interval;
  if (any_dirty && !rate_limited) {
    std::size_t published = 0;
    for (auto& [id, m] : managed_) {
      if (m.journal->dirty()) published += m.journal->flush();
    }
    if (published != 0) {
      ++stats_.publishes;
      last_publish_ = now;
      ever_published_ = true;
      if (convergence_pending_) {
        ++stats_.convergences;
        stats_.last_convergence_ns = now - stats_.last_event_time;
        convergence_pending_ = false;
      }
    }
  } else {
    // Nothing to publish (or holding for the publish window): still drain
    // any grace periods that elapsed since the last poll.
    for (auto& [id, m] : managed_) m.journal->tables().domain.try_reclaim();
  }
}

void ControlPlane::start(SimTime horizon) {
  refresh(/*force=*/true);
  const SimTime next = net_.now() + config_.poll_interval;
  if (next > horizon) return;
  net_.loop().schedule_at(next, [this, horizon] { start_tick(horizon); });
}

void ControlPlane::start_tick(SimTime horizon) {
  refresh();
  const SimTime next = net_.now() + config_.poll_interval;
  if (next > horizon) return;
  net_.loop().schedule_at(next, [this, horizon] { start_tick(horizon); });
}

void ControlPlane::write_stats(telemetry::StatsWriter& w) const {
  w.counter("dip_ctrl_polls_total", {}, stats_.polls);
  const telemetry::Label down[] = {{"dir", "down"}};
  const telemetry::Label up[] = {{"dir", "up"}};
  w.counter("dip_ctrl_link_events_total", down, stats_.link_down_events);
  w.counter("dip_ctrl_link_events_total", up, stats_.link_up_events);
  w.counter("dip_ctrl_recomputes_total", {}, stats_.recomputes);
  w.counter("dip_ctrl_routes_installed_total", {}, stats_.routes_installed);
  w.counter("dip_ctrl_routes_withdrawn_total", {}, stats_.routes_withdrawn);
  w.counter("dip_ctrl_publishes_total", {}, stats_.publishes);
  w.counter("dip_ctrl_convergences_total", {}, stats_.convergences);
  w.counter("dip_ctrl_convergence_ns", {}, stats_.last_convergence_ns);

  for (const auto& [id, m] : managed_) {
    const std::string idx = std::to_string(id);
    const telemetry::Label labels[] = {{"node", idx}};
    const JournalStats& js = m.journal->stats();
    w.counter("dip_ctrl_updates_enqueued_total", labels, js.ops_enqueued);
    w.counter("dip_ctrl_updates_coalesced_total", labels, js.ops_coalesced);
    w.counter("dip_ctrl_updates_applied_total", labels, js.updates_applied);
    w.counter("dip_ctrl_snapshots_published_total", labels,
              js.snapshots_published);
    const ControlTables& tables = *m.node->env().control;
    const fib::Ipv4Lpm* fib = tables.fib32.read();
    w.counter("dip_ctrl_snapshot_generation", labels,
              fib != nullptr ? fib->generation() : 0);
    w.counter("dip_ctrl_reclaim_backlog", labels, tables.domain.backlog());
    w.counter("dip_ctrl_reclaimed_total", labels,
              tables.domain.reclaimed_total());
    // FIB shape of the live snapshot (catalogued in docs/OBSERVABILITY.md;
    // memory_bytes walks pointer engines, fine at exposition cadence).
    w.counter("dip_fib_entries", labels, fib != nullptr ? fib->size() : 0);
    w.counter("dip_fib_memory_bytes", labels,
              fib != nullptr ? fib->memory_bytes() : 0);
    w.counter("dip_fib_publish_latency_ns", labels, js.last_flush_ns);
    w.counter("dip_fib_publish_latency_max_ns", labels, js.max_flush_ns);
  }
}

void ControlPlane::register_stats(telemetry::StatsRegistry& registry) const {
  registry.add("control_plane",
               [this](telemetry::StatsWriter& w) { write_stats(w); });
}

}  // namespace dip::ctrl
