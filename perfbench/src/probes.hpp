// Layer probes: the per-layer half of a traced run.
//
// Each probe times one layer's public entry point from the benchmark's own
// code (no tracing inside src/), on the workload's own generated packets
// where the layer consumes packets, and reports a median over repetitions.
#pragma once

#include <functional>

#include "common.hpp"
#include "dip/core/env.hpp"
#include "dip/core/registry.hpp"
#include "dip/fib/lpm.hpp"
#include "workload_data.hpp"

namespace perfbench {

/// Micro probes shared by every workload: core (bind, batch, shard, ring),
/// fib, crypto, op modules, telemetry overhead and mesh framing/sockets.
/// `make_env` builds a fresh environment identical to one pool worker's;
/// `fib32` is the workload's live IPv4 table. Also
/// fills core.residual_ns from the parts it measured.
void run_layer_probes(const Schedule& schedule, std::uint64_t seed,
                      const dip::core::OpRegistry* registry,
                      const std::function<dip::core::RouterEnv()>& make_env,
                      const dip::fib::Ipv4Lpm& fib32, Metrics& out);

}  // namespace perfbench
