#include "runtime.h"

#include "trace/counters.h"

namespace groupcast::perfbench {

void start_runtime(Runtime& runtime, const World& world, util::Rng& rng,
                   const core::TransportOptions& transport_options,
                   const core::NodeOptions& node_options, bool traced,
                   Spans& spans) {
  Spans::Scope span(spans, "runtime.start");
  if (traced) trace::counters().enable(world.population->size());
  runtime.transport = std::make_unique<core::Transport>(
      runtime.simulator, *world.population, transport_options, rng);
  runtime.nodes.reserve(world.population->size());
  for (PeerId p = 0; p < world.population->size(); ++p) {
    runtime.nodes.push_back(std::make_unique<core::GroupCastNode>(
        p, *runtime.transport, *world.graph, node_options, rng));
    runtime.nodes.back()->start();
  }
}

std::vector<std::size_t> kind_counts(const core::Transport& transport) {
  std::vector<std::size_t> kinds;
  for (std::size_t k = 0; k < core::kMessageKinds; ++k) {
    kinds.push_back(transport.stats().of(static_cast<core::MessageKind>(k)));
  }
  return kinds;
}

std::string transport_digest(const core::Transport& transport) {
  std::string digest = "kinds=";
  for (const auto k : kind_counts(transport)) digest += std::to_string(k) + ",";
  digest += " sent=" + std::to_string(transport.messages_sent()) +
            " lost=" + std::to_string(transport.messages_lost()) +
            " bytes=" + std::to_string(transport.bytes_sent());
  return digest;
}

void runtime_layers(Runtime& runtime, const Spans& spans, double simulate_s,
                    RoundResult& out) {
  for (const char* name : {"runtime.start", "runtime.establish",
                           "runtime.churn", "runtime.traffic"}) {
    out.layers[std::string(name) + "_s"] = spans.total_s(name);
  }
  const auto& simulator = runtime.simulator;
  const auto& transport = *runtime.transport;
  const auto events = static_cast<double>(simulator.events_fired());
  const auto sent = static_cast<double>(transport.messages_sent());
  out.layers["sim.events"] = events;
  out.layers["sim.queue_high_water"] =
      static_cast<double>(simulator.queue_high_water());
  out.layers["sim.ns_per_event"] = events > 0 ? simulate_s * 1e9 / events : 0.0;

  static constexpr std::pair<core::MessageKind, const char*> kKinds[] = {
      {core::MessageKind::kAdvertisement, "transport.msgs.advertisement"},
      {core::MessageKind::kRippleSearch, "transport.msgs.ripple_search"},
      {core::MessageKind::kRippleResponse, "transport.msgs.ripple_response"},
      {core::MessageKind::kSubscribeJoin, "transport.msgs.join"},
      {core::MessageKind::kSubscribeAck, "transport.msgs.join_ack"},
      {core::MessageKind::kPayload, "transport.msgs.payload"},
      {core::MessageKind::kMaintenance, "transport.msgs.maintenance"},
  };
  for (const auto& [kind, name] : kKinds) {
    out.layers[name] = static_cast<double>(transport.stats().of(kind));
  }
  out.layers["transport.bytes_mb"] =
      static_cast<double>(transport.bytes_sent()) / 1e6;
  out.layers["transport.lost"] = static_cast<double>(transport.messages_lost());
  out.layers["transport.ns_per_msg"] = sent > 0 ? simulate_s * 1e9 / sent : 0.0;

  auto& counters = trace::counters();
  static constexpr std::pair<trace::CounterId, const char*> kCounters[] = {
      {trace::CounterId::kRippleSearches, "node.ripple_searches"},
      {trace::CounterId::kHeartbeats, "node.heartbeats"},
      {trace::CounterId::kControlRetries, "node.control_retries"},
      {trace::CounterId::kNacksSent, "node.nacks"},
      {trace::CounterId::kRetransmits, "node.retransmits"},
      {trace::CounterId::kDupsSuppressed, "node.dups_suppressed"},
      {trace::CounterId::kFlowBlocked, "node.flow_blocked"},
      {trace::CounterId::kChunksLate, "node.chunks_late"},
  };
  for (const auto& [id, name] : kCounters) {
    out.layers[name] = static_cast<double>(counters.total(id));
  }
  counters.disable();
  counters.reset();

  std::size_t node_bytes = 0;
  for (const auto& node : runtime.nodes) node_bytes += node->memory_bytes();
  out.layers["node.state_mb"] = static_cast<double>(node_bytes) / 1e6;
  out.layers["transport.state_mb"] =
      static_cast<double>(transport.memory_bytes()) / 1e6;
  out.layers["sim.state_mb"] =
      static_cast<double>(simulator.memory_bytes()) / 1e6;
}

}  // namespace groupcast::perfbench
