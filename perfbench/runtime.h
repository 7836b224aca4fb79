// The node runtime as churn_repair and stream_flash drive it: one
// Transport and one GroupCastNode per peer on a single simulator wheel,
// plus what the benchmark reads back from them through public accessors.
#pragma once

#include <memory>
#include <vector>

#include "bench.h"
#include "checks.h"
#include "core/node.h"
#include "core/transport.h"
#include "sim/simulator.h"
#include "world.h"

namespace groupcast::perfbench {

struct Runtime {
  sim::Simulator simulator;
  std::unique_ptr<core::Transport> transport;
  std::vector<std::unique_ptr<core::GroupCastNode>> nodes;
  sim::SimTime clock = sim::SimTime::zero();
  /// Deliveries seen by the benchmark's own on_data / on_chunk callbacks.
  std::vector<Delivery> log;

  /// Runs the wheel to `by` past the last boundary (the harnesses'
  /// epoch-stepping idiom).
  void advance(sim::SimTime by) {
    clock = clock + by;
    simulator.run_until(clock);
  }
  sim::SimTime now() const { return simulator.now(); }
};

/// Constructs the transport and one started node per peer (the
/// runtime.start span).  A traced round also switches the public counter
/// registry on for the node.* metrics; runtime_layers switches it off.
void start_runtime(Runtime& runtime, const World& world, util::Rng& rng,
                   const core::TransportOptions& transport_options,
                   const core::NodeOptions& node_options, bool traced,
                   Spans& spans);

/// Transport message counts by kind, in MessageKind order.
std::vector<std::size_t> kind_counts(const core::Transport& transport);

/// Deterministic transport totals for the round digest.
std::string transport_digest(const core::Transport& transport);

/// Event-kernel, transport and node metrics of a traced round, read from
/// Simulator / Transport accessors and the counter registry.
void runtime_layers(Runtime& runtime, const Spans& spans, double simulate_s,
                    RoundResult& out);

}  // namespace groupcast::perfbench
