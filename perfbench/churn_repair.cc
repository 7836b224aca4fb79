// churn_repair: Section 3.3's churn repair on the node runtime.  One group
// on a 10,000-peer world, 2% loss, reliable data on; 15% of the members
// crash across one epoch, the survivors re-attach over the recovery
// epochs, and one speaking round of payloads from the rendezvous point
// measures delivery.  The schedule follows metrics/recovery.cc (single
// wheel, no replication) with the benchmark's own callbacks and checks.
#include <algorithm>
#include <cstdio>
#include <functional>
#include <unordered_set>

#include "core/fault_injection.h"
#include "runtime.h"
#include "sim/fault_plan.h"

namespace groupcast::perfbench {

namespace {

constexpr std::size_t kPeers = 10000;
constexpr std::size_t kGroupSize = 5000;
constexpr double kCrashFraction = 0.15;
constexpr double kLoss = 0.02;
constexpr std::size_t kConvergenceEpochs = 10;
/// The speaking round: payloads from the rendezvous point, 100 ms apart.
constexpr std::uint64_t kSpeakingPayloads = 32;
constexpr core::GroupId kGroup = 1;

}  // namespace

RoundResult run_churn_repair(const RoundOptions& options) {
  RoundResult out;
  Spans spans(options.traced);
  Stopwatch setup;
  setup.start();
  // The group and the crash schedule are drawn from the world's own stream,
  // not from --seed: on this draw the stranded-subscriber fault (README.md)
  // strands the same survivor on every run, so the failed share is the
  // same in every run.
  World world = build_world(world_config(kPeers, kWorldSeed), spans);
  Runtime runtime;
  util::Rng rng = world.rng.split();
  core::TransportOptions transport_options;
  transport_options.loss_probability = kLoss;
  // The recovery harness's node options (RecoveryOptions defaults).
  core::NodeOptions node_options;
  node_options.advertisement = world.config.advertisement;
  node_options.ripple_ttl = world.config.subscription.ripple_ttl;
  node_options.heartbeat_interval = sim::SimTime::seconds(0.5);
  node_options.missed_heartbeats_to_fail = 6;
  node_options.reliability.enabled = true;
  start_runtime(runtime, world, rng, transport_options, node_options,
                options.traced, spans);
  for (const auto& node : runtime.nodes) {
    const PeerId self = node->id();
    node->on_data([&runtime, self](core::GroupId, std::uint64_t payload,
                                   PeerId origin) {
      runtime.log.push_back(
          Delivery{self, origin, payload, runtime.now().as_micros()});
    });
  }
  setup.stop();
  out.setup_s = setup.seconds();

  auto& nodes = runtime.nodes;
  auto& simulator = runtime.simulator;
  const sim::SimTime epoch = sim::SimTime::seconds(4.0);
  Stopwatch simulate;
  simulate.start();

  // --- establish: advertisement flood, subscriptions, convergence --------
  const int establish_span = spans.begin("runtime.establish");
  const PeerId rendezvous = pick_rendezvous(world);
  nodes[rendezvous]->create_group(kGroup);
  runtime.advance(epoch);
  std::vector<PeerId> subscribers;
  for (const auto idx : rng.sample_indices(kPeers, kGroupSize + 1)) {
    const auto p = static_cast<PeerId>(idx);
    if (p == rendezvous || subscribers.size() == kGroupSize) continue;
    subscribers.push_back(p);
  }
  // A subscriber whose ladder gives up retries one epoch later, as a
  // client would.
  std::vector<char> want(kPeers, 0);
  for (const auto s : subscribers) want[s] = 1;
  std::function<void(PeerId)> resubscribe_later = [&](PeerId s) {
    simulator.schedule_at(simulator.now() + epoch, [&, s] {
      if (want[s] != 0 && nodes[s]->running() &&
          !nodes[s]->is_subscribed(kGroup)) {
        nodes[s]->subscribe(kGroup);
      }
    });
  };
  for (const auto s : subscribers) {
    nodes[s]->on_subscribe_result([&, s](core::GroupId, bool success) {
      if (!success && want[s] != 0) resubscribe_later(s);
    });
  }
  for (const auto s : subscribers) nodes[s]->subscribe(kGroup);
  for (std::size_t e = 0; e < kConvergenceEpochs; ++e) {
    runtime.advance(epoch);
    if (std::none_of(subscribers.begin(), subscribers.end(), [&](PeerId s) {
          return nodes[s]->exchange_pending(kGroup);
        })) {
      break;
    }
  }
  std::vector<PeerId> members;
  for (const auto s : subscribers) {
    if (nodes[s]->is_subscribed(kGroup) && nodes[s]->on_tree(kGroup)) {
      members.push_back(s);
    }
  }

  spans.end(establish_span);

  // --- churn: crashes spread over one epoch, then recovery epochs -------
  const int churn_span = spans.begin("runtime.churn");
  std::vector<PeerId> victims = members;
  rng.shuffle(victims);
  const auto n_crash = static_cast<std::size_t>(
      kCrashFraction * static_cast<double>(members.size()));
  sim::FaultPlan plan;
  for (std::size_t i = 0; i < n_crash; ++i) {
    const sim::SimTime at =
        runtime.clock +
        sim::SimTime::micros(epoch.as_micros() *
                             static_cast<std::int64_t>(i + 1) /
                             static_cast<std::int64_t>(n_crash + 1));
    plan.crashes.push_back(
        sim::CrashEvent{at, static_cast<sim::FaultNodeId>(victims[i])});
  }
  core::FaultInjector injector(std::move(plan), *runtime.transport);
  injector.arm([&nodes](PeerId victim) { nodes[victim]->crash(); });
  std::vector<char> crashed(kPeers, 0);
  for (std::size_t i = 0; i < n_crash; ++i) crashed[victims[i]] = 1;
  std::vector<PeerId> survivors;
  for (const auto m : members) {
    if (crashed[m] == 0) survivors.push_back(m);
  }
  runtime.advance(epoch);  // the churn window
  for (std::size_t e = 1; e <= kConvergenceEpochs; ++e) {
    if (std::all_of(survivors.begin(), survivors.end(), [&](PeerId s) {
          return nodes[s]->on_tree(kGroup) &&
                 !nodes[s]->exchange_pending(kGroup);
        })) {
      break;
    }
    runtime.advance(epoch);
  }
  spans.end(churn_span);

  // --- traffic: one speaking round from the rendezvous point -----------
  // --seed shifts the round within a second of steady state; the world,
  // the group and the crashes above stay fixed.
  {
    const int traffic_span = spans.begin("runtime.traffic");
    runtime.advance(sim::SimTime::micros(
        static_cast<std::int64_t>(options.seed % 1000) * 1000));
    const sim::SimTime gap = sim::SimTime::millis(100);
    std::vector<std::int64_t> published_us(kSpeakingPayloads + 1, -1);
    for (std::uint64_t payload = 1; payload <= kSpeakingPayloads; ++payload) {
      const sim::SimTime at =
          runtime.now() +
          sim::SimTime::micros(gap.as_micros() *
                               static_cast<std::int64_t>(payload - 1));
      simulator.schedule_at(at, [&, payload, at] {
        published_us[payload] = at.as_micros();
        nodes[rendezvous]->publish(kGroup, payload);
      });
    }
    runtime.advance(sim::SimTime::micros(
                        gap.as_micros() *
                        static_cast<std::int64_t>(kSpeakingPayloads - 1)) +
                    epoch);
    spans.end(traffic_span);
    simulate.stop();
    out.simulate_s = simulate.seconds();

    // --- operations and checks (untimed) --------------------------------
    std::vector<char> member(kPeers, 0);
    for (const auto s : subscribers) member[s] = 1;
    member[rendezvous] = 1;
    DeliveryRules rules;
    rules.is_member = [&member](PeerId p, PeerId) { return member[p] != 0; };
    rules.crashed = [&crashed, &nodes](PeerId p) {
      return crashed[p] != 0 || !nodes[p]->running();
    };
    rules.published_us = [&](PeerId origin, std::uint64_t payload) {
      return origin == rendezvous && payload >= 1 &&
                     payload <= kSpeakingPayloads
                 ? published_us[payload]
                 : std::int64_t{-1};
    };
    rules.direct_us = [&world](PeerId a, PeerId b) {
      return sim::SimTime::millis(world.population->latency_ms(a, b))
          .as_micros();
    };
    check_deliveries(runtime.log, rules, out.violations);
    check_kind_sum(kind_counts(*runtime.transport),
                   runtime.transport->messages_sent(), out.violations);

    std::vector<char> survivor(kPeers, 0);
    for (const auto s : survivors) survivor[s] = 1;
    std::unordered_set<std::uint64_t> delivered;
    double delay_sum_ms = 0.0;
    for (const auto& d : runtime.log) {
      if (survivor[d.receiver] == 0 ||
          rules.published_us(d.origin, d.payload) < 0) {
        continue;
      }
      if (!delivered.insert(std::uint64_t{d.receiver} << 32 | d.payload)
               .second) {
        continue;
      }
      delay_sum_ms +=
          static_cast<double>(d.at_us - published_us[d.payload]) / 1000.0;
    }
    out.attempted = survivors.size() * kSpeakingPayloads;
    out.failed = out.attempted - delivered.size();
    out.messages_per_subscriber =
        static_cast<double>(runtime.transport->messages_sent()) /
        static_cast<double>(subscribers.size());
    out.delivery_delay_ms =
        delivered.empty()
            ? 0.0
            : delay_sum_ms / static_cast<double>(delivered.size());

    // Name the survivors that missed payloads, and where they hang.
    std::string missing;
    std::size_t shown = 0;
    for (const auto s : survivors) {
      std::size_t got = 0;
      for (std::uint64_t p = 1; p <= kSpeakingPayloads; ++p) {
        got += delivered.count(std::uint64_t{s} << 32 | p);
      }
      if (got == kSpeakingPayloads || ++shown > 5) continue;
      const bool attached = nodes[s]->on_tree(kGroup);
      const PeerId parent =
          attached ? nodes[s]->tree_parent(kGroup) : overlay::kNoPeer;
      char line[160];
      std::snprintf(line, sizeof line,
                    " %u (subscribed %d, on tree %d, parent %d on tree %d, "
                    "exchange pending %d)",
                    s, nodes[s]->is_subscribed(kGroup), attached,
                    attached ? static_cast<int>(parent) : -1,
                    attached && nodes[parent]->running() &&
                        nodes[parent]->on_tree(kGroup),
                    nodes[s]->exchange_pending(kGroup));
      missing += line;
    }
    char digest[160];
    std::snprintf(digest, sizeof digest,
                  " members=%zu survivors=%zu delivered=%zu events=%zu",
                  members.size(), survivors.size(), delivered.size(),
                  simulator.events_fired());
    out.digest = transport_digest(*runtime.transport) + digest;
    out.summary = "churn_repair: " + std::to_string(survivors.size()) +
                  " survivors x " + std::to_string(kSpeakingPayloads) +
                  " payloads, " + std::to_string(out.failed) +
                  " pairs undelivered;" + (missing.empty() ? " none" : missing);
  }
  if (options.traced) {
    world_layers(world, spans, out);
    runtime_layers(runtime, spans, out.simulate_s, out);
  }
  out.peak_rss_mb = peak_rss_mb();
  if (options.verify_world) compare_with_facade(world, out.violations);
  return out;
}

}  // namespace groupcast::perfbench
