// The deployment every workload runs on, built piecewise: each public
// constructor the GroupCastMiddleware façade calls, in the façade's order
// and on the same RNG stream, timed one by one as a world-build layer.
#pragma once

#include <memory>

#include "bench.h"
#include "checks.h"
#include "core/middleware.h"
#include "net/routing.h"
#include "net/topology.h"
#include "overlay/bootstrap.h"
#include "overlay/graph.h"
#include "overlay/host_cache.h"
#include "overlay/population.h"
#include "util/rng.h"

namespace groupcast::perfbench {

struct World {
  core::MiddlewareConfig config;
  /// The deployment's generator stream, positioned where the façade's is
  /// after construction.
  util::Rng rng{0};
  /// Copy of `rng` taken when the build finished, for compare_with_facade.
  util::Rng built_rng{0};
  std::unique_ptr<net::UnderlayTopology> underlay;
  std::unique_ptr<net::IpRouting> routing;
  std::unique_ptr<overlay::PeerPopulation> population;
  std::unique_ptr<overlay::OverlayGraph> graph;
  std::unique_ptr<overlay::HostCacheServer> host_cache;
  std::unique_ptr<overlay::GroupCastBootstrap> bootstrap;
  std::size_t repair_edges = 0;
};

/// Builds the transit-stub GroupCast world for `config`, recording the
/// spans net.underlay, net.routing, overlay.population (which contains the
/// GNP embedding), overlay.host_cache and overlay.bootstrap.
World build_world(const core::MiddlewareConfig& config, Spans& spans);

/// Builds the same world through the façade and reports every difference:
/// underlay size, peer attachment, adjacency (peer by peer, both
/// directions), repair edges and the generator stream position.
void compare_with_facade(const World& world, Violations& out);

/// Every workload runs on one fixed world (kWorldSeed), and its rendezvous
/// points come from the world's own stream: between worlds, and between
/// rendezvous points, latency and tree depth spread far more than any
/// change a run could resolve.  The rest of a run's draws come from
/// --seed, on a stream of their own (seed_stream).
inline constexpr std::uint64_t kWorldSeed = 1;
inline util::Rng seed_stream(std::uint64_t seed) {
  return util::Rng::for_stream(seed, 1);
}

/// The façade's rendezvous choice: a random walk over the overlay that
/// keeps the most capable peer it visits.
PeerId pick_rendezvous(World& world);

/// The façade's per-workload defaults for a transit-stub GroupCast world.
core::MiddlewareConfig world_config(std::size_t peers, std::uint64_t seed);

/// Per-layer world-build metrics of a traced round.
void world_layers(const World& world, const Spans& spans, RoundResult& out);

}  // namespace groupcast::perfbench
