// CustodyRouterNode — a custody-capable DIP router in the simulator:
// netsim's NodeRuntime with a CustodyAgent (dtn/agent.hpp) as its forward
// veto. The wrapper supplies the netsim primitives: custody ACKs addressed
// to this node terminate before processing (the FIB has no route to the
// node's own address; a tag that fails its MAC counts as kAuthFailed), an
// ACK this node owes leaves back out the ingress face (the reverse-path
// seam §2.4's notifications use), and retries run on the simulation loop.
#pragma once

#include <memory>

#include "dip/core/registry.hpp"
#include "dip/dtn/agent.hpp"
#include "dip/netsim/network.hpp"
#include "dip/netsim/node_runtime.hpp"

namespace dip::dtn {

class CustodyRouterNode final : public netsim::Node {
 public:
  using Config = CustodyAgent::Config;

  /// `env` should carry custody_key/accept_custody and the node's identity.
  CustodyRouterNode(core::RouterEnv env, std::shared_ptr<const core::OpRegistry> registry,
                    Config config);
  CustodyRouterNode(core::RouterEnv env, std::shared_ptr<const core::OpRegistry> registry)
      : CustodyRouterNode(std::move(env), std::move(registry), Config{}) {}

  void on_packet(netsim::FaceId face, netsim::PacketBytes packet, SimTime now) override;

  [[nodiscard]] core::Router& router() noexcept { return runtime_.router(); }
  [[nodiscard]] core::RouterEnv& env() noexcept { return runtime_.env(); }
  [[nodiscard]] const CustodyStore& store() const noexcept { return agent_.store(); }
  [[nodiscard]] fib::Ipv4Addr address() const noexcept;

  [[nodiscard]] std::uint64_t acks_sent() const noexcept { return agent_.acks_sent(); }
  [[nodiscard]] std::uint64_t custody_drops() const noexcept {
    return agent_.custody_drops();
  }
  [[nodiscard]] std::uint64_t drops(core::DropReason reason) const {
    return runtime_.drops()[reason];
  }

  /// NodeRuntime::write_stats plus the `dip_dtn_*` store and agent series,
  /// node-labelled.
  void write_stats(telemetry::StatsWriter& w) const;

 private:
  netsim::NodeRuntime runtime_;
  CustodyAgent agent_;
};

}  // namespace dip::dtn
