// paper_groups: the paper's Figs. 11-17 experiment on the centralized
// engines.  One 20,000-peer world; 10 groups of 2,000 announced with SSA,
// then 10 with NSSA; each group subscribes its members and ends with one
// GroupSession dissemination from the rendezvous point.
#include <cstdio>
#include <unordered_map>
#include <unordered_set>

#include "bench.h"
#include "checks.h"
#include "core/advertisement.h"
#include "core/group_session.h"
#include "core/subscription.h"
#include "sim/simulator.h"
#include "world.h"

namespace groupcast::perfbench {

namespace {

constexpr std::size_t kPeers = 20000;
constexpr std::size_t kGroupsPerScheme = 10;
constexpr std::size_t kGroupSize = 2000;
/// Widest ripple search a missed subscription retries with (the
/// advertisement TTL).
constexpr std::size_t kMaxRippleTtl = 8;

/// True if b is within `hops` overlay hops of a.
bool within_hops(const overlay::OverlayGraph& graph, PeerId a, PeerId b,
                 std::size_t hops) {
  std::vector<PeerId> frontier{a};
  std::unordered_set<PeerId> seen{a};
  for (std::size_t level = 0; level < hops && !frontier.empty(); ++level) {
    std::vector<PeerId> next;
    for (const auto at : frontier) {
      for (const auto nbr : graph.neighbors(at)) {
        if (nbr == b) return true;
        if (seen.insert(nbr).second) next.push_back(nbr);
      }
    }
    frontier = std::move(next);
  }
  return false;
}

TreeView view_of(const core::SpanningTree& tree) {
  TreeView view;
  view.root = tree.root();
  for (const auto node : tree.nodes()) view.parent[node] = tree.parent(node);
  view.subscribers.assign(tree.subscribers().begin(),
                          tree.subscribers().end());
  return view;
}

}  // namespace

RoundResult run_paper_groups(const RoundOptions& options) {
  RoundResult out;
  Spans spans(options.traced);
  Stopwatch setup;
  setup.start();
  World world = build_world(world_config(kPeers, kWorldSeed), spans);
  util::Rng draws = seed_stream(options.seed);
  setup.stop();
  out.setup_s = setup.seconds();

  const auto& population = *world.population;
  const EdgePredicate is_overlay_edge = [&world](PeerId a, PeerId b) {
    return world.graph->connected(a, b);
  };
  const LatencyMs latency = [&population](PeerId a, PeerId b) {
    return population.latency_ms(a, b);
  };

  sim::Simulator simulator;
  Stopwatch simulate;
  std::size_t advert_msgs = 0, subscription_msgs = 0;
  std::size_t subscriptions = 0, failed = 0, delay_samples = 0;
  std::size_t ripple_retries = 0;
  double delay_sum_ms = 0.0;
  for (const auto scheme : {core::AnnouncementScheme::kSsaUtility,
                            core::AnnouncementScheme::kNssa}) {
    const bool ssa = scheme == core::AnnouncementScheme::kSsaUtility;
    for (std::size_t g = 0; g < kGroupsPerScheme; ++g) {
      simulate.start();
      // The façade's establish_random_group steps: a rendezvous walk (on
      // the world's stream), then the subscribers (on the seed's).
      const PeerId rendezvous = pick_rendezvous(world);
      std::vector<PeerId> subscribers;
      for (const auto p : draws.sample_indices(population.size(), kGroupSize)) {
        if (static_cast<PeerId>(p) != rendezvous) {
          subscribers.push_back(static_cast<PeerId>(p));
        }
      }
      auto advert_options = world.config.advertisement;
      advert_options.scheme = scheme;
      core::AdvertisementState advert;
      {
        Spans::Scope span(spans,
                          ssa ? "core.announce_ssa" : "core.announce_nssa");
        core::AdvertisementEngine engine(simulator, population, *world.graph,
                                         advert_options, draws);
        advert = engine.announce(rendezvous);
      }
      core::SpanningTree tree(rendezvous);
      core::SubscriptionReport report;
      std::unordered_map<PeerId, std::size_t> ripple_ttl;
      {
        Spans::Scope span(spans, "core.subscribe");
        core::SubscriptionProtocol protocol(population, *world.graph,
                                            world.config.subscription);
        report = protocol.subscribe_all(advert, subscribers, tree);
        // A ripple search that misses (Fig. 12) is retried with its TTL
        // widened by one hop, as the node runtime's ladder does, so every
        // subscription of a connected overlay ends on the tree; each retry
        // is counted, and so are its messages.
        for (auto& outcome : report.outcomes) {
          for (std::size_t ttl = world.config.subscription.ripple_ttl + 1;
               !outcome.success && ttl <= kMaxRippleTtl; ++ttl) {
            auto wider = world.config.subscription;
            wider.ripple_ttl = ttl;
            const std::size_t spent = outcome.search_messages;
            const core::SubscriptionProtocol widened(population,
                                                     *world.graph, wider);
            outcome = widened.subscribe(advert, outcome.subscriber, tree);
            outcome.search_messages += spent;
            ripple_ttl[outcome.subscriber] = ttl;
            ++ripple_retries;
          }
        }
      }
      core::DisseminationResult session;
      {
        Spans::Scope span(spans, "core.session");
        session = core::GroupSession(population, tree).disseminate(rendezvous);
      }
      simulate.stop();

      advert_msgs += advert.messages;
      subscription_msgs += report.total_messages();
      // A subscription fails when its subscriber is left off the tree; the
      // engine's own verdict must agree with the tree.
      std::size_t engine_failures = 0;
      for (const auto& outcome : report.outcomes) {
        if (!outcome.success) ++engine_failures;
      }
      std::size_t off_tree = 0;
      for (const auto s : subscribers) {
        if (!tree.is_subscriber(s)) ++off_tree;
      }
      subscriptions += subscribers.size();
      failed += off_tree;
      if (engine_failures != off_tree ||
          report.outcomes.size() != subscribers.size()) {
        out.violations.push_back(
            "subscription report disagrees with the tree");
      }
      for (const auto& [peer, delay] : session.subscriber_delay_ms) {
        delay_sum_ms += delay;
        ++delay_samples;
      }
      // A subscriber that found the tree by ripple search joins its hit
      // over a fresh unicast link, so its tree edge may span up to the
      // search's TTL in overlay hops; every other tree edge is an overlay
      // edge.
      std::unordered_map<PeerId, PeerId> ripple_parent;
      for (const auto& outcome : report.outcomes) {
        if (outcome.success && !outcome.had_advertisement) {
          ripple_parent[outcome.subscriber] = outcome.attach_point;
        }
      }
      const EdgePredicate tree_edge_ok = [&](PeerId child, PeerId parent) {
        if (is_overlay_edge(child, parent)) return true;
        const auto it = ripple_parent.find(child);
        if (it == ripple_parent.end() || it->second != parent) return false;
        const auto ttl = ripple_ttl.find(child);
        return within_hops(*world.graph, child, parent,
                           ttl != ripple_ttl.end()
                               ? ttl->second
                               : world.config.subscription.ripple_ttl);
      };
      const TreeView view = view_of(tree);
      check_tree(view, tree_edge_ok, out.violations);
      check_session_delays(view, latency, session.subscriber_delay_ms,
                           out.violations);
      check_advert_parents(advert.parent, rendezvous, is_overlay_edge,
                           out.violations);
    }
  }
  out.simulate_s = simulate.seconds();
  out.attempted = subscriptions;
  out.failed = failed;
  out.messages_per_subscriber =
      static_cast<double>(advert_msgs + subscription_msgs) /
      static_cast<double>(subscriptions);
  out.delivery_delay_ms =
      delay_samples == 0
          ? 0.0
          : delay_sum_ms / static_cast<double>(delay_samples);

  char digest[256];
  std::snprintf(digest, sizeof digest,
                "adverts=%zu subscription=%zu failed=%zu retries=%zu "
                "events=%zu delay_sum=%.17g edges=%zu",
                advert_msgs, subscription_msgs, failed, ripple_retries,
                simulator.events_fired(), delay_sum_ms,
                world.graph->edge_count());
  out.digest = digest;
  out.summary = "paper_groups: " + std::to_string(subscriptions) +
                " subscriptions, " + std::to_string(ripple_retries) +
                " widened ripple retries, " + std::to_string(failed) +
                " off-tree";

  if (options.traced) {
    world_layers(world, spans, out);
    for (const char* name : {"core.announce_ssa", "core.announce_nssa",
                             "core.subscribe", "core.session"}) {
      out.layers[std::string(name) + "_s"] = spans.total_s(name);
    }
    out.layers["core.advert_msgs"] = static_cast<double>(advert_msgs);
    out.layers["core.subscription_msgs"] =
        static_cast<double>(subscription_msgs);
    out.layers["core.ripple_retries"] = static_cast<double>(ripple_retries);
    out.layers["sim.engine_events"] =
        static_cast<double>(simulator.events_fired());
  }
  out.peak_rss_mb = peak_rss_mb();
  if (options.verify_world) compare_with_facade(world, out.violations);
  return out;
}

}  // namespace groupcast::perfbench
