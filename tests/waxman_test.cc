// Tests for the Waxman underlay generator, the Weibull session model, and
// wire-decode robustness against arbitrary bytes (fuzz-style sweep).
#include <gtest/gtest.h>

#include <cmath>

#include "core/wire.h"
#include "net/routing.h"
#include "net/topology.h"
#include "overlay/churn.h"
#include "overlay/host_cache.h"
#include "test_helpers.h"
#include "util/require.h"
#include "util/stats.h"

namespace groupcast {
namespace {

// ------------------------------------------------------------------ Waxman

TEST(Waxman, AlwaysConnectedAcrossSeeds) {
  net::WaxmanConfig config;
  config.routers = 120;
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    util::Rng rng(seed);
    const auto topo = net::generate_waxman(config, rng);
    EXPECT_TRUE(topo.is_connected()) << "seed " << seed;
    EXPECT_EQ(topo.router_count(), 120u);
  }
}

TEST(Waxman, AllRoutersAreStubAttachable) {
  net::WaxmanConfig config;
  config.routers = 60;
  util::Rng rng(3);
  const auto topo = net::generate_waxman(config, rng);
  EXPECT_EQ(topo.stub_routers().size(), 60u);
}

TEST(Waxman, LinkLatencyMatchesGeometry) {
  // Latencies are plane distances, so they obey the triangle inequality
  // and are bounded by the plane diagonal.
  net::WaxmanConfig config;
  config.routers = 80;
  config.plane_side_ms = 100.0;
  util::Rng rng(5);
  const auto topo = net::generate_waxman(config, rng);
  const double diagonal = 100.0 * std::numbers::sqrt2;
  for (net::LinkId l = 0; l < topo.link_count(); ++l) {
    EXPECT_GT(topo.link(l).latency_ms, 0.0);
    EXPECT_LE(topo.link(l).latency_ms, diagonal + 1e-9);
  }
}

TEST(Waxman, ShortLinksDominateLongOnes) {
  // The Waxman kernel decays with distance: short links must outnumber
  // long ones.
  net::WaxmanConfig config;
  config.routers = 150;
  util::Rng rng(7);
  const auto topo = net::generate_waxman(config, rng);
  std::size_t short_links = 0, long_links = 0;
  const double threshold = config.plane_side_ms * std::numbers::sqrt2 / 2.0;
  for (net::LinkId l = 0; l < topo.link_count(); ++l) {
    (topo.link(l).latency_ms < threshold ? short_links : long_links) += 1;
  }
  EXPECT_GT(short_links, 3 * long_links);
}

TEST(Waxman, RoutableAndUsableAsPopulationSubstrate) {
  net::WaxmanConfig config;
  config.routers = 60;
  util::Rng rng(9);
  const auto topo = net::generate_waxman(config, rng);
  const net::IpRouting routing(topo);
  overlay::PopulationConfig pop;
  pop.peer_count = 64;
  pop.gnp.landmarks = 6;
  const overlay::PeerPopulation population(routing, pop, rng);
  EXPECT_GT(population.latency_ms(0, 1), 0.0);
}

TEST(Waxman, RejectsBadParameters) {
  util::Rng rng(1);
  net::WaxmanConfig bad;
  bad.routers = 1;
  EXPECT_THROW(net::generate_waxman(bad, rng), PreconditionError);
  bad = {};
  bad.alpha = 0.0;
  EXPECT_THROW(net::generate_waxman(bad, rng), PreconditionError);
}

// ----------------------------------------------------------------- Weibull

TEST(Weibull, ShapeOneIsExponential) {
  util::Rng rng(11);
  util::Summary s;
  for (int i = 0; i < 100000; ++i) s.add(rng.weibull(1.0, 3.0));
  EXPECT_NEAR(s.mean(), 3.0, 0.1);
  // Exponential: stddev == mean.
  EXPECT_NEAR(s.stddev(), 3.0, 0.15);
}

TEST(Weibull, HeavyTailForSmallShape) {
  util::Rng rng(13);
  util::Summary s;
  const double shape = 0.5;
  const double scale = 1.0;
  for (int i = 0; i < 100000; ++i) s.add(rng.weibull(shape, scale));
  // Mean of Weibull(0.5, 1) = Gamma(3) = 2; stddev far above the mean.
  EXPECT_NEAR(s.mean(), 2.0, 0.15);
  EXPECT_GT(s.stddev(), s.mean());
}

TEST(Weibull, RejectsBadParameters) {
  util::Rng rng(1);
  EXPECT_THROW(rng.weibull(0.0, 1.0), PreconditionError);
  EXPECT_THROW(rng.weibull(1.0, 0.0), PreconditionError);
}

TEST(WeibullChurn, MeanSessionPreservedAcrossShapes) {
  // Departure times minus arrival times must average mean_session for both
  // the exponential and heavy-tailed settings.
  for (const double shape : {1.0, 0.6}) {
    testing::SmallWorld world(64, 17);
    overlay::OverlayGraph graph(64);
    overlay::HostCacheServer cache(*world.population,
                                   overlay::HostCacheOptions{}, world.rng);
    overlay::GroupCastBootstrap bootstrap(*world.population, graph, cache,
                                          overlay::BootstrapOptions{},
                                          world.rng);
    sim::Simulator simulator;
    overlay::ChurnOptions options;
    options.mean_interarrival = sim::SimTime::seconds(0.01);
    options.mean_session = sim::SimTime::seconds(100.0);
    options.session_shape = shape;
    options.failure_fraction = 0.0;
    overlay::ChurnModel churn(simulator, bootstrap, options, world.rng);
    std::vector<overlay::PeerId> order;
    for (overlay::PeerId p = 0; p < 64; ++p) order.push_back(p);
    churn.start(order);
    simulator.run();
    EXPECT_EQ(churn.stats().graceful_leaves, 64u) << "shape " << shape;
    // All sessions ended; mean session length is bounded sanely (64
    // samples: generous tolerance).
    EXPECT_GT(simulator.now().as_seconds(), 50.0);
  }
}

// --------------------------------------------------------------- wire fuzz

TEST(WireFuzz, ArbitraryBytesNeverCrash) {
  util::Rng rng(19);
  std::size_t decoded = 0, rejected = 0;
  for (int trial = 0; trial < 20000; ++trial) {
    std::vector<std::uint8_t> bytes(rng.uniform_index(24));
    for (auto& b : bytes) {
      b = static_cast<std::uint8_t>(rng.uniform_index(256));
    }
    try {
      const auto body = core::decode_message(bytes);
      // Anything that decodes must re-encode to the same bytes.
      EXPECT_EQ(core::encode_message(body), bytes);
      ++decoded;
    } catch (const core::WireError&) {
      ++rejected;
    }
  }
  EXPECT_GT(rejected, 0u);
  // Random bytes occasionally form valid messages (1-in-256 tag hit with
  // the right length); both paths must be exercised.
  EXPECT_EQ(decoded + rejected, 20000u);
}

TEST(WireFuzz, BitFlippedMessagesDecodeOrThrowCleanly) {
  for (const auto& original : testing::all_message_kinds()) {
    const auto bytes = core::encode_message(original);
    // A chunk's body is opaque application bytes the simulation does not
    // carry: decoding skips it and re-encoding pads with zeros, so a flip
    // inside it decodes back to the unflipped frame.
    const auto* chunk = std::get_if<core::ChunkMsg>(&original);
    const std::size_t body_at =
        bytes.size() - (chunk != nullptr ? chunk->payload_bytes : 0);
    for (std::size_t byte = 0; byte < bytes.size(); ++byte) {
      for (int bit = 0; bit < 8; ++bit) {
        auto mutated = bytes;
        mutated[byte] ^= static_cast<std::uint8_t>(1 << bit);
        try {
          const auto body = core::decode_message(mutated);
          EXPECT_EQ(core::encode_message(body),
                    byte < body_at ? mutated : bytes)
              << "tag " << original.index() + 1 << ", byte " << byte
              << ", bit " << bit;
        } catch (const core::WireError&) {
          // acceptable: corrupted tag, length, count or flag
        }
      }
    }
  }
}

}  // namespace
}  // namespace groupcast
