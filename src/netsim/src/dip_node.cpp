#include "dip/netsim/dip_node.hpp"

#include "dip/core/ip.hpp"
#include "dip/epic/epic.hpp"
#include "dip/ndn/ndn.hpp"
#include "dip/opt/opt.hpp"
#include "dip/security/pass.hpp"
#include "dip/telemetry/telemetry.hpp"
#include "dip/xia/xia.hpp"

namespace dip::netsim {

std::shared_ptr<core::OpRegistry> make_default_registry() {
  auto registry = std::make_shared<core::OpRegistry>();
  registry->add(std::make_unique<core::Match32Op>());
  registry->add(std::make_unique<core::Match128Op>());
  registry->add(std::make_unique<core::SourceOp>());
  registry->add(std::make_unique<ndn::FibOp>());
  registry->add(std::make_unique<ndn::PitOp>());
  registry->add(std::make_unique<opt::ParmOp>());
  registry->add(std::make_unique<opt::MacOp>());
  registry->add(std::make_unique<opt::MarkOp>());
  registry->add(std::make_unique<xia::DagOp>());
  registry->add(std::make_unique<xia::IntentOp>());
  registry->add(std::make_unique<security::PassOp>());
  registry->add(std::make_unique<epic::HvfOp>());
  registry->add(std::make_unique<telemetry::TelemetryOp>());
  return registry;
}

void DipRouterNode::register_stats(telemetry::StatsRegistry& registry) const {
  registry.add("node " + std::to_string(runtime_.env().node_id),
               [this](telemetry::StatsWriter& w) { write_stats(w); });
}

std::string DipRouterNode::dump_stats() const {
  telemetry::StatsWriter w;
  write_stats(w);
  return w.take();
}

}  // namespace dip::netsim
