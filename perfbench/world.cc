#include "world.h"

#include <algorithm>
#include <numeric>
#include <queue>

#include "util/require.h"

namespace groupcast::perfbench {

namespace {

/// The façade's connectivity repair: every secondary component's most
/// capable member links (both ways) to a random giant-component member.
std::size_t ensure_connected(World& world) {
  auto& graph = *world.graph;
  const std::size_t n = graph.peer_count();
  std::vector<std::int32_t> component(n, -1);
  std::vector<std::size_t> component_size;
  std::int32_t n_components = 0;
  for (std::size_t start = 0; start < n; ++start) {
    if (component[start] >= 0) continue;
    const std::int32_t c = n_components++;
    component_size.push_back(0);
    std::queue<PeerId> frontier;
    frontier.push(static_cast<PeerId>(start));
    component[start] = c;
    while (!frontier.empty()) {
      const auto at = frontier.front();
      frontier.pop();
      ++component_size[static_cast<std::size_t>(c)];
      for (const auto nbr : graph.neighbors(at)) {
        if (component[nbr] < 0) {
          component[nbr] = c;
          frontier.push(nbr);
        }
      }
    }
  }
  if (n_components <= 1) return 0;
  const auto giant = static_cast<std::int32_t>(
      std::max_element(component_size.begin(), component_size.end()) -
      component_size.begin());
  std::vector<PeerId> giant_members;
  for (std::size_t p = 0; p < n; ++p) {
    if (component[p] == giant) giant_members.push_back(static_cast<PeerId>(p));
  }
  std::vector<PeerId> best(static_cast<std::size_t>(n_components),
                           overlay::kNoPeer);
  for (std::size_t p = 0; p < n; ++p) {
    auto& b = best[static_cast<std::size_t>(component[p])];
    if (b == overlay::kNoPeer ||
        world.population->info(static_cast<PeerId>(p)).capacity >
            world.population->info(b).capacity) {
      b = static_cast<PeerId>(p);
    }
  }
  std::size_t repairs = 0;
  for (std::int32_t c = 0; c < n_components; ++c) {
    if (c == giant) continue;
    const auto from = best[static_cast<std::size_t>(c)];
    const auto to =
        giant_members[world.rng.uniform_index(giant_members.size())];
    graph.add_edge(from, to);
    graph.add_edge(to, from);
    ++repairs;
  }
  return repairs;
}

}  // namespace

core::MiddlewareConfig world_config(std::size_t peers, std::uint64_t seed) {
  core::MiddlewareConfig config;
  config.peer_count = peers;
  config.seed = seed;
  return config;
}

World build_world(const core::MiddlewareConfig& config, Spans& spans) {
  GC_REQUIRE_MSG(config.overlay == core::OverlayKind::kGroupCast &&
                     config.underlay_model ==
                         core::UnderlayModel::kTransitStub,
                 "the benchmark builds transit-stub GroupCast worlds only");
  World world;
  world.config = config;
  world.rng = util::Rng::for_stream(config.seed, 0);
  {
    Spans::Scope span(spans, "net.underlay");
    world.underlay = std::make_unique<net::UnderlayTopology>(
        net::generate_transit_stub(
            net::scale_config_for_peers(config.peer_count,
                                        config.peers_per_router),
            world.rng));
  }
  {
    Spans::Scope span(spans, "net.routing");
    world.routing = std::make_unique<net::IpRouting>(*world.underlay);
  }
  {
    Spans::Scope span(spans, "overlay.population");
    auto population_config = config.population;
    population_config.peer_count = config.peer_count;
    world.population = std::make_unique<overlay::PeerPopulation>(
        *world.routing, population_config, world.rng);
  }
  {
    Spans::Scope span(spans, "overlay.host_cache");
    world.graph = std::make_unique<overlay::OverlayGraph>(config.peer_count);
    world.host_cache = std::make_unique<overlay::HostCacheServer>(
        *world.population, config.host_cache, world.rng);
  }
  {
    Spans::Scope span(spans, "overlay.bootstrap");
    world.bootstrap = std::make_unique<overlay::GroupCastBootstrap>(
        *world.population, *world.graph, *world.host_cache, config.bootstrap,
        world.rng);
    // Section 4.1 arrival process: peers join one at a time in random order.
    std::vector<PeerId> order(config.peer_count);
    std::iota(order.begin(), order.end(), 0);
    world.rng.shuffle(order);
    for (const auto peer : order) world.bootstrap->join(peer);
    world.graph->compact();
    world.repair_edges = ensure_connected(world);
  }
  world.built_rng = world.rng;
  return world;
}

void compare_with_facade(const World& world, Violations& out) {
  core::GroupCastMiddleware facade(world.config);
  const auto differ = [&out](const std::string& what) {
    out.push_back("piecewise world differs from the facade's: " + what);
  };
  if (facade.underlay().router_count() != world.underlay->router_count() ||
      facade.underlay().link_count() != world.underlay->link_count()) {
    differ("underlay size");
  }
  const auto n = world.population->size();
  if (facade.population().size() != n) {
    differ("peer count");
    return;
  }
  std::size_t peer_mismatches = 0, adjacency_mismatches = 0;
  for (PeerId p = 0; p < n; ++p) {
    const auto& a = facade.population().info(p);
    const auto& b = world.population->info(p);
    if (a.router != b.router || a.access_latency_ms != b.access_latency_ms ||
        a.capacity != b.capacity) {
      ++peer_mismatches;
    }
    const auto same = [](overlay::OverlayGraph::NeighborSpan x,
                         overlay::OverlayGraph::NeighborSpan y) {
      return std::equal(x.begin(), x.end(), y.begin(), y.end());
    };
    if (!same(facade.graph().out_neighbors(p),
              world.graph->out_neighbors(p)) ||
        !same(facade.graph().in_neighbors(p), world.graph->in_neighbors(p))) {
      ++adjacency_mismatches;
    }
  }
  if (peer_mismatches > 0) {
    differ(std::to_string(peer_mismatches) + " peers attach differently");
  }
  if (adjacency_mismatches > 0 ||
      facade.graph().edge_count() != world.graph->edge_count()) {
    differ(std::to_string(adjacency_mismatches) +
           " peers have other neighbours");
  }
  if (facade.connectivity_repair_edges() != world.repair_edges) {
    differ("repair edges");
  }
  util::Rng ours = world.built_rng;
  if (ours() != facade.rng()()) differ("generator stream position");
}

PeerId pick_rendezvous(World& world) {
  const auto& graph = *world.graph;
  const auto& population = *world.population;
  auto at = static_cast<PeerId>(world.rng.uniform_index(population.size()));
  for (std::size_t attempt = 0;
       graph.degree(at) == 0 && attempt < population.size(); ++attempt) {
    at = static_cast<PeerId>(world.rng.uniform_index(population.size()));
  }
  GC_REQUIRE_MSG(graph.degree(at) > 0, "no connected peer to host a group");
  PeerId best = at;
  for (std::size_t step = 0; step < world.config.rendezvous_walk_length;
       ++step) {
    const auto nbrs = graph.neighbors(at);
    if (nbrs.empty()) break;
    at = nbrs[world.rng.uniform_index(nbrs.size())];
    if (population.info(at).capacity > population.info(best).capacity) {
      best = at;
    }
  }
  return best;
}

void world_layers(const World& world, const Spans& spans, RoundResult& out) {
  for (const char* name : {"net.underlay", "net.routing", "overlay.population",
                           "overlay.host_cache", "overlay.bootstrap"}) {
    out.layers[std::string(name) + "_s"] = spans.total_s(name);
  }
  out.layers["overlay.edges"] = static_cast<double>(world.graph->edge_count());
  out.layers["overlay.graph_mb"] =
      static_cast<double>(world.graph->memory_bytes()) / 1e6;
}

}  // namespace groupcast::perfbench
