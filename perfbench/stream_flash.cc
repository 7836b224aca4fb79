// stream_flash: chunked live streaming on the node runtime, shaped like
// arXiv:1510.02138.  Four live streams share one world; each is published
// by its group's rendezvous point (the Section 4.3 content node) to its own
// viewers in 16 KiB chunks every 100 ms, over reliable, flow-controlled
// edges behind capacity-scaled access-link caps (token-bucket pacing).
// Halfway through, a flash crowd joins the streams within one second.  The
// schedule follows metrics/streaming.cc (single wheel) with the
// benchmark's own callbacks and checks.  Several streams per round average
// the delay over several trees.
#include <algorithm>
#include <cstdio>
#include <functional>

#include "runtime.h"

namespace groupcast::perfbench {

namespace {

constexpr std::size_t kPeers = 8000;
constexpr std::size_t kStreams = 4;
constexpr std::size_t kViewersPerStream = 200;
constexpr std::size_t kChunks = 100;  // per stream
constexpr std::uint32_t kChunkBytes = 16 * 1024;
/// 50 Mbit/s access links, scaled by each peer's capacity class, and no
/// loss: with tighter caps, or loss on top of the caps, chunks or flash
/// joins fail on some seeds (README.md, "Known faults").  churn_repair
/// covers NACK repair under loss.
constexpr double kCapKbps = 50000.0;
constexpr std::size_t kFlashJoins = 2000;  // spread over the streams
constexpr std::size_t kConvergenceEpochs = 10;

}  // namespace

RoundResult run_stream_flash(const RoundOptions& options) {
  const sim::SimTime epoch = sim::SimTime::seconds(4.0);
  const sim::SimTime interval = sim::SimTime::millis(100);
  const sim::SimTime deadline_after = sim::SimTime::seconds(2.0);
  // The crowd arrives halfway through the streams, spread over one second.
  const sim::SimTime flash_after = sim::SimTime::seconds(5.0);
  const sim::SimTime flash_window = sim::SimTime::seconds(1.0);

  RoundResult out;
  Spans spans(options.traced);
  Stopwatch setup;
  setup.start();
  World world = build_world(world_config(kPeers, kWorldSeed), spans);
  Runtime runtime;
  util::Rng rng = seed_stream(options.seed);
  core::TransportOptions transport_options;
  transport_options.bandwidth.uplink_kbps = kCapKbps;
  transport_options.bandwidth.downlink_kbps = kCapKbps;
  transport_options.bandwidth.scale_with_capacity = true;
  core::NodeOptions node_options;
  node_options.advertisement = world.config.advertisement;
  node_options.ripple_ttl = world.config.subscription.ripple_ttl;
  node_options.heartbeat_interval = sim::SimTime::seconds(0.5);
  node_options.missed_heartbeats_to_fail = 6;
  node_options.reliability.enabled = true;
  node_options.reliability.flow_control = true;
  start_runtime(runtime, world, rng, transport_options, node_options,
                options.traced, spans);
  auto& nodes = runtime.nodes;
  auto& simulator = runtime.simulator;
  // Application callbacks: chunk arrivals, and subscribe outcomes (first
  // attach instant; a ladder give-up retries one epoch later).  Every peer
  // belongs to at most one stream's group (0 = none).
  std::vector<core::GroupId> group_of(kPeers, 0);
  std::vector<std::int64_t> attached_us(kPeers, -1);
  std::function<void(PeerId)> resubscribe_later = [&](PeerId p) {
    simulator.schedule_at(simulator.now() + epoch, [&, p] {
      if (nodes[p]->running() && !nodes[p]->is_subscribed(group_of[p])) {
        nodes[p]->subscribe(group_of[p]);
      }
    });
  };
  for (const auto& node : nodes) {
    const PeerId self = node->id();
    node->on_chunk([&runtime, self](core::GroupId, const core::ChunkMsg& msg) {
      runtime.log.push_back(Delivery{self, msg.origin,
                                     msg.stream * kChunks + msg.chunk_id,
                                     runtime.now().as_micros()});
    });
    node->on_subscribe_result([&, self](core::GroupId, bool success) {
      if (success && attached_us[self] < 0) {
        attached_us[self] = simulator.now().as_micros();
      }
      if (!success && group_of[self] != 0) resubscribe_later(self);
    });
  }
  setup.stop();
  out.setup_s = setup.seconds();

  Stopwatch simulate;
  simulate.start();

  // --- establish: each stream's group, rooted at its rendezvous point ---
  const int establish_span = spans.begin("runtime.establish");
  std::vector<char> taken(kPeers, 0);
  std::vector<PeerId> roots;
  while (roots.size() < kStreams) {
    const PeerId root = pick_rendezvous(world);
    if (taken[root] != 0) continue;
    taken[root] = 1;
    roots.push_back(root);
  }
  // Disjoint random roles: a sample of count + |taken| peers always holds
  // `count` untaken ones.
  std::size_t n_taken = roots.size();
  const auto draw = [&](std::size_t count) {
    std::vector<PeerId> picked;
    for (const auto idx : rng.sample_indices(kPeers, count + n_taken)) {
      const auto p = static_cast<PeerId>(idx);
      if (taken[p] != 0 || picked.size() == count) continue;
      taken[p] = 1;
      picked.push_back(p);
    }
    n_taken += count;
    return picked;
  };
  const std::vector<PeerId> viewers = draw(kStreams * kViewersPerStream);
  const std::vector<PeerId> flash = draw(kFlashJoins);
  // Stream s is group s + 1; viewers and joiners are dealt round-robin.
  for (std::size_t s = 0; s < kStreams; ++s) {
    group_of[roots[s]] = static_cast<core::GroupId>(s + 1);
    nodes[roots[s]]->create_group(group_of[roots[s]]);
  }
  for (std::size_t i = 0; i < viewers.size(); ++i) {
    group_of[viewers[i]] = static_cast<core::GroupId>(i % kStreams + 1);
  }
  for (std::size_t i = 0; i < flash.size(); ++i) {
    group_of[flash[i]] = static_cast<core::GroupId>(i % kStreams + 1);
  }
  runtime.advance(epoch);
  for (const auto v : viewers) nodes[v]->subscribe(group_of[v]);
  for (std::size_t e = 0; e < kConvergenceEpochs; ++e) {
    runtime.advance(epoch);
    if (std::none_of(viewers.begin(), viewers.end(), [&](PeerId v) {
          return nodes[v]->exchange_pending(group_of[v]);
        })) {
      break;
    }
  }
  spans.end(establish_span);

  // --- traffic: the streams, with the flash crowd mid-stream ------------
  const int traffic_span = spans.begin("runtime.traffic");
  const sim::SimTime stream_start = runtime.clock;
  // Publish instant of chunk c of stream s at [s * kChunks + c].
  std::vector<std::int64_t> published_us(kStreams * kChunks, -1);
  for (std::size_t c = 0; c < kChunks; ++c) {
    const sim::SimTime at =
        stream_start + sim::SimTime::micros(interval.as_micros() *
                                            static_cast<std::int64_t>(c + 1));
    simulator.schedule_at(at, [&, c, at] {
      for (std::size_t s = 0; s < kStreams; ++s) {
        published_us[s * kChunks + c] = at.as_micros();
        nodes[roots[s]]->publish_chunk(
            group_of[roots[s]], static_cast<std::uint32_t>(s),
            static_cast<std::uint32_t>(c), at + deadline_after, kChunkBytes);
      }
    });
  }
  for (std::size_t i = 0; i < flash.size(); ++i) {
    const PeerId p = flash[i];
    const sim::SimTime at =
        stream_start + flash_after +
        sim::SimTime::micros(flash_window.as_micros() *
                             static_cast<std::int64_t>(i + 1) /
                             static_cast<std::int64_t>(flash.size() + 1));
    simulator.schedule_at(at, [&, p] { nodes[p]->subscribe(group_of[p]); });
  }
  // Run out the streams, the last deadline and one settle epoch.
  runtime.advance(sim::SimTime::micros(interval.as_micros() *
                                       static_cast<std::int64_t>(kChunks + 1)) +
                  deadline_after + epoch);
  spans.end(traffic_span);
  simulate.stop();
  out.simulate_s = simulate.seconds();

  // --- operations and checks (untimed) ----------------------------------
  std::vector<PeerId> root_of_group(kStreams + 1, overlay::kNoPeer);
  for (const auto root : roots) root_of_group[group_of[root]] = root;
  DeliveryRules rules;
  rules.is_member = [&](PeerId receiver, PeerId origin) {
    return group_of[receiver] != 0 &&
           root_of_group[group_of[receiver]] == origin;
  };
  rules.crashed = [&nodes](PeerId p) { return !nodes[p]->running(); };
  rules.published_us = [&](PeerId origin, std::uint64_t key) {
    const std::size_t s = key / kChunks;
    return s < kStreams && roots[s] == origin ? published_us[key]
                                              : std::int64_t{-1};
  };
  rules.direct_us = [&world](PeerId a, PeerId b) {
    return sim::SimTime::millis(world.population->latency_ms(a, b))
        .as_micros();
  };
  check_deliveries(runtime.log, rules, out.violations);
  check_kind_sum(kind_counts(*runtime.transport),
                 runtime.transport->messages_sent(), out.violations);

  // First arrival per (viewer, chunk); a viewer only gets its own stream.
  std::vector<std::int64_t> arrival(kPeers * kChunks, -1);
  for (const auto& d : runtime.log) {
    if (!rules.is_member(d.receiver, d.origin)) continue;
    auto& slot = arrival[d.receiver * kChunks + d.payload % kChunks];
    if (slot < 0) slot = d.at_us;
  }
  std::uint64_t attempted = 0, failed = 0, delivered = 0;
  double delay_sum_ms = 0.0;
  std::string missing;  // the first few failed operations, for stderr
  const auto note_failure = [&](const std::string& what) {
    if (++failed <= 5) missing += " " + what + ";";
  };
  // Regular viewers owe every chunk published after they attached (all of
  // them when attached before the stream); flash joiners owe the chunks
  // published after their attach, and the attach itself is an operation.
  const auto score = [&](PeerId v, std::int64_t eligible_from_us) {
    const std::size_t s = group_of[v] - 1;
    for (std::size_t c = 0; c < kChunks; ++c) {
      const std::int64_t published = published_us[s * kChunks + c];
      if (published < eligible_from_us) continue;
      ++attempted;
      const std::int64_t at = arrival[v * kChunks + c];
      if (at < 0) {
        note_failure("viewer " + std::to_string(v) + " never got chunk " +
                     std::to_string(c) + " of stream " + std::to_string(s) +
                     (nodes[v]->on_tree(group_of[v]) ? " (on tree)"
                                                     : " (off tree)"));
        continue;
      }
      ++delivered;
      delay_sum_ms += static_cast<double>(at - published) / 1000.0;
    }
  };
  for (const auto v : viewers) {
    score(v, std::max(attached_us[v], stream_start.as_micros()));
  }
  std::size_t flash_attached = 0;
  for (const auto p : flash) {
    ++attempted;
    const bool attached = attached_us[p] >= 0 &&
                          nodes[p]->is_subscribed(group_of[p]) &&
                          nodes[p]->on_tree(group_of[p]);
    if (!attached) {
      note_failure("joiner " + std::to_string(p) + " never attached" +
                   (nodes[p]->exchange_pending(group_of[p])
                        ? " (exchange pending)"
                        : ""));
      continue;
    }
    ++flash_attached;
    score(p, attached_us[p]);
  }
  out.attempted = attempted;
  out.failed = failed;
  out.messages_per_subscriber =
      static_cast<double>(runtime.transport->messages_sent()) /
      static_cast<double>(viewers.size() + flash.size());
  out.delivery_delay_ms =
      delivered == 0 ? 0.0 : delay_sum_ms / static_cast<double>(delivered);

  char digest[192];
  std::snprintf(digest, sizeof digest,
                " delivered=%llu failed=%llu flash_attached=%zu events=%zu "
                "delay_sum=%.17g",
                static_cast<unsigned long long>(delivered),
                static_cast<unsigned long long>(failed), flash_attached,
                simulator.events_fired(), delay_sum_ms);
  out.digest = transport_digest(*runtime.transport) + digest;
  out.summary = "stream_flash: " + std::to_string(attempted) +
                " operations (" + std::to_string(flash_attached) + "/" +
                std::to_string(flash.size()) + " flash joins attached), " +
                std::to_string(failed) + " failed" +
                (missing.empty() ? "" : ":" + missing);
  if (options.traced) {
    world_layers(world, spans, out);
    runtime_layers(runtime, spans, out.simulate_s, out);
  }
  out.peak_rss_mb = peak_rss_mb();
  if (options.verify_world) compare_with_facade(world, out.violations);
  return out;
}

}  // namespace groupcast::perfbench
