// Shared fixtures for the GroupCast test suites: a small deterministic
// underlay + population, hand-built graphs with known properties, and one
// sample of every protocol message.
#pragma once

#include <memory>
#include <vector>

#include "core/transport.h"
#include "net/routing.h"
#include "net/topology.h"
#include "overlay/population.h"
#include "util/rng.h"

namespace groupcast::testing {

/// A compact transit-stub world (~2 transit domains) with `peers` peers.
/// Deterministic for a given seed.
struct SmallWorld {
  std::unique_ptr<net::UnderlayTopology> underlay;
  std::unique_ptr<net::IpRouting> routing;
  std::unique_ptr<overlay::PeerPopulation> population;
  util::Rng rng;

  explicit SmallWorld(std::size_t peers = 64, std::uint64_t seed = 1)
      : rng(seed) {
    net::TransitStubConfig config;
    config.transit_domains = 2;
    config.routers_per_transit_domain = 2;
    config.stub_domains_per_transit_router = 2;
    config.routers_per_stub_domain = 4;
    underlay = std::make_unique<net::UnderlayTopology>(
        net::generate_transit_stub(config, rng));
    routing = std::make_unique<net::IpRouting>(*underlay);
    overlay::PopulationConfig pop;
    pop.peer_count = peers;
    pop.gnp.landmarks = 6;
    population =
        std::make_unique<overlay::PeerPopulation>(*routing, pop, rng);
  }
};

/// A straight-line underlay: routers 0-1-2-...-(n-1) with unit latencies.
/// Distances are exactly |i - j| ms, which makes routing assertions exact.
inline net::UnderlayTopology line_topology(std::size_t routers,
                                           double hop_ms = 1.0) {
  net::UnderlayTopology::Builder builder;
  for (std::size_t i = 0; i < routers; ++i) {
    builder.add_router(i == 0 ? net::RouterKind::kTransit
                              : net::RouterKind::kStub,
                       0);
  }
  for (std::size_t i = 0; i + 1 < routers; ++i) {
    builder.add_link(static_cast<net::RouterId>(i),
                     static_cast<net::RouterId>(i + 1), hop_ms);
  }
  return std::move(builder).build();
}

/// One sample of every protocol message, in wire-tag order.  The chunk
/// carries a small zero-padded body and the replication push a non-empty
/// record log, so every field-type rule of the codec is exercised.
inline std::vector<core::MessageBody> all_message_kinds() {
  using namespace core;
  return {
      AdvertiseMsg{7, 42, 8},
      JoinMsg{7, 1001},
      JoinAckMsg{7, 3},
      RippleQueryMsg{7, 2002, 2, 1},
      RippleHitMsg{7, 3003, 4},
      DataMsg{7, 4004, 0xDEADBEEFCAFEF00DULL},
      LeaveMsg{7, 5005},
      HeartbeatMsg{7},
      HeartbeatAckMsg{7, 2},
      ParentLostMsg{7},
      ReliableDataMsg{7, 4004, 0xDEADBEEFCAFEF00DULL, 3, 99},
      DataNackMsg{7, 3, 64, 0x8000000000000001ULL},
      DataAckMsg{7, 3, 65},
      SeqSyncMsg{7, 3, 12, 66},
      FlowControlMsg{7, true},
      LeaseMsg{7, 4, 6006, 1001},
      LeaseAckMsg{7, 4, 4, 3},
      ReplicateMsg{7, 4, 6006, 1001, {{1, 1001}, {2, 6006}, {4, 6006}}},
      ReplicateAckMsg{7, 4, 4, 3},
      HandoffMsg{7, 5, 7007, 1001},
      ChunkMsg{7, 42, 3, 17, 123456789, 5, 2, 88},
  };
}

}  // namespace groupcast::testing
