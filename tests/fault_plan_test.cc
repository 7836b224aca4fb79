// Tests for deterministic fault injection: the fault-plan grammar and
// queries, the injector's crash scheduling, partition / burst-loss drops
// at the transport on both event kernels (the single wheel and a sharded
// ShardSet), and the option-validation regressions that ride along
// (ChurnOptions::failure_fraction, TransportOptions::loss_probability).
#include <gtest/gtest.h>

#include "core/fault_injection.h"
#include "core/transport.h"
#include "overlay/bootstrap.h"
#include "overlay/churn.h"
#include "overlay/graph.h"
#include "overlay/host_cache.h"
#include "sim/fault_plan.h"
#include "sim/shard_set.h"
#include "test_helpers.h"
#include "util/require.h"

namespace groupcast {
namespace {

using core::Envelope;
using core::Transport;
using core::TransportOptions;
using overlay::PeerId;
using sim::FaultPlan;
using sim::SimTime;

// ------------------------------------------------------------ the grammar

TEST(FaultPlan, ParsesEveryClauseKind) {
  const auto plan = FaultPlan::parse(
      "crash@12.5s:7; partition@30s-60s:1,2,3|4,5; burst@45s-48s:0.9");
  ASSERT_EQ(plan.crashes.size(), 1u);
  EXPECT_EQ(plan.crashes[0].at, SimTime::seconds(12.5));
  EXPECT_EQ(plan.crashes[0].node, 7u);
  ASSERT_EQ(plan.partitions.size(), 1u);
  EXPECT_EQ(plan.partitions[0].begin, SimTime::seconds(30.0));
  EXPECT_EQ(plan.partitions[0].end, SimTime::seconds(60.0));
  EXPECT_EQ(plan.partitions[0].side_a,
            (std::vector<sim::FaultNodeId>{1, 2, 3}));
  EXPECT_EQ(plan.partitions[0].side_b,
            (std::vector<sim::FaultNodeId>{4, 5}));
  ASSERT_EQ(plan.bursts.size(), 1u);
  EXPECT_DOUBLE_EQ(plan.bursts[0].loss_probability, 0.9);
}

TEST(FaultPlan, AcceptsMsSuffixNewlinesAndLooseWhitespace) {
  const auto plan = FaultPlan::parse(
      "  crash @ 250ms : 3 \n\n burst@1s-2s:0.5 ;\n crash@2s:4 ");
  ASSERT_EQ(plan.crashes.size(), 2u);
  EXPECT_EQ(plan.crashes[0].at, SimTime::millis(250.0));
  EXPECT_EQ(plan.crashes[1].node, 4u);
  EXPECT_EQ(plan.bursts.size(), 1u);
}

TEST(FaultPlan, TextRoundTrips) {
  const auto plan = FaultPlan::parse(
      "crash@12.5s:7; partition@30s-60s:1,2,3|4,5; burst@45s-48s:0.9");
  EXPECT_EQ(FaultPlan::parse(plan.to_text()), plan);
}

TEST(FaultPlan, RejectsMalformedInput) {
  EXPECT_THROW(FaultPlan::parse("meteor@1s:3"), PreconditionError);
  EXPECT_THROW(FaultPlan::parse("crash 1s:3"), PreconditionError);
  EXPECT_THROW(FaultPlan::parse("crash@1s"), PreconditionError);
  EXPECT_THROW(FaultPlan::parse("partition@5s-4s:1|2"), PreconditionError);
  EXPECT_THROW(FaultPlan::parse("partition@1s-2s:|2"), PreconditionError);
  EXPECT_THROW(FaultPlan::parse("burst@1s-2s:1.5"), PreconditionError);
  EXPECT_THROW(FaultPlan::parse("crash@1s:3 extra"), PreconditionError);
}

TEST(FaultPlan, QueriesRespectHalfOpenWindows) {
  const auto plan =
      FaultPlan::parse("partition@1s-2s:1|2; burst@3s-4s:0.25");
  EXPECT_FALSE(sim::partitioned(plan, 1, 2, SimTime::millis(999.0)));
  EXPECT_TRUE(sim::partitioned(plan, 1, 2, SimTime::seconds(1.0)));
  EXPECT_TRUE(sim::partitioned(plan, 2, 1, SimTime::seconds(1.5)));
  EXPECT_FALSE(sim::partitioned(plan, 1, 2, SimTime::seconds(2.0)));
  EXPECT_FALSE(sim::partitioned(plan, 1, 3, SimTime::seconds(1.5)));
  EXPECT_DOUBLE_EQ(sim::burst_loss(plan, SimTime::seconds(3.5)), 0.25);
  EXPECT_DOUBLE_EQ(sim::burst_loss(plan, SimTime::seconds(4.0)), 0.0);
}

TEST(FaultPlan, MergeAppendsAndValidateThrows) {
  auto plan = FaultPlan::parse("crash@1s:1");
  plan.merge(FaultPlan::parse("crash@2s:2; burst@1s-2s:0.1"));
  EXPECT_EQ(plan.crashes.size(), 2u);
  EXPECT_EQ(plan.bursts.size(), 1u);

  FaultPlan bad;
  bad.bursts.push_back(
      sim::BurstLoss{SimTime::seconds(2.0), SimTime::seconds(1.0), 0.5});
  EXPECT_THROW(bad.validate(), PreconditionError);
}

// ---------------------------------------------------------- the injector

struct TransportFixture {
  testing::SmallWorld world;
  sim::Simulator simulator;
  Transport transport;
  std::vector<Envelope> inbox;

  TransportFixture()
      : world(16, 5),
        transport(simulator, *world.population, TransportOptions{},
                  world.rng) {}

  void attach(PeerId peer) {
    transport.register_node(
        peer, [this](const Envelope& e) { inbox.push_back(e); });
  }
};

TEST(FaultInjector, SchedulesCrashesDeterministically) {
  TransportFixture f;
  core::FaultInjector injector(FaultPlan::parse("crash@1s:3; crash@2s:5"),
                               f.transport);
  std::vector<std::pair<PeerId, std::int64_t>> crashes;
  injector.arm([&](PeerId victim) {
    crashes.emplace_back(victim, f.simulator.now().as_micros());
  });
  f.simulator.run();
  ASSERT_EQ(crashes.size(), 2u);
  EXPECT_EQ(crashes[0],
            std::make_pair(PeerId{3}, SimTime::seconds(1.0).as_micros()));
  EXPECT_EQ(crashes[1],
            std::make_pair(PeerId{5}, SimTime::seconds(2.0).as_micros()));
  EXPECT_EQ(injector.crashed(),
            (std::vector<PeerId>{3, 5}));
}

TEST(FaultInjector, PartitionWindowBlocksCrossSideTraffic) {
  TransportFixture f;
  f.attach(1);
  f.attach(2);
  f.attach(3);
  core::FaultInjector injector(
      FaultPlan::parse("partition@0s-1s:1|2"), f.transport);
  // Cross-partition send: dropped at send time.
  f.transport.send(1, 2, core::HeartbeatMsg{9});
  // Same-side / unaffected peers still talk.
  f.transport.send(1, 3, core::HeartbeatMsg{9});
  f.simulator.run_until(SimTime::seconds(1.0));
  ASSERT_EQ(f.inbox.size(), 1u);
  EXPECT_EQ(f.inbox[0].to, 3u);
  EXPECT_EQ(f.transport.messages_lost(), 1u);
  // After the window closes the same edge works again.
  f.simulator.schedule_at(SimTime::seconds(1.0), [&f] {
    f.transport.send(1, 2, core::HeartbeatMsg{9});
  });
  f.simulator.run();
  EXPECT_EQ(f.inbox.size(), 2u);
}

TEST(FaultInjector, BurstLossDropsEverythingAtProbabilityOne) {
  TransportFixture f;
  f.attach(1);
  f.attach(2);
  core::FaultInjector injector(FaultPlan::parse("burst@0s-1s:1.0"),
                               f.transport);
  f.transport.send(1, 2, core::HeartbeatMsg{9});
  f.simulator.schedule_at(SimTime::seconds(1.0), [&f] {
    f.transport.send(1, 2, core::HeartbeatMsg{9});
  });
  f.simulator.run();
  // The in-window send died, the post-window one arrived.
  ASSERT_EQ(f.inbox.size(), 1u);
  EXPECT_EQ(f.transport.messages_lost(), 1u);
}

TEST(FaultInjector, ArmingTwiceIsRejected) {
  TransportFixture f;
  core::FaultInjector injector(FaultPlan::parse("crash@1s:3"), f.transport);
  injector.arm(nullptr);
  EXPECT_THROW(injector.arm(nullptr), PreconditionError);
  f.simulator.run();
  EXPECT_EQ(injector.crashed(), (std::vector<PeerId>{3}));
}

// --------------------------------------- the injector on a sharded kernel

/// The TransportFixture over a ShardSet: every peer is registered, and
/// each receiver records its inbox on its own shard.
struct ShardedFixture {
  testing::SmallWorld world;
  sim::ShardSet shards;
  Transport transport;
  std::vector<std::vector<Envelope>> inbox;

  ShardedFixture()
      : world(48, 7),
        shards(2, /*lookahead_us=*/300),
        transport(shards, *world.population, TransportOptions{}, world.rng),
        inbox(world.population->size()) {
    for (PeerId p = 0; p < world.population->size(); ++p) {
      transport.register_node(
          p, [this, p](const Envelope& e) { inbox[p].push_back(e); });
    }
  }

  /// Sends a heartbeat from `from` to `to` at `at`, on the sender's shard.
  void send_at(SimTime at, PeerId from, PeerId to) {
    transport.simulator_for(from).schedule_at(at, [this, from, to] {
      transport.send(from, to, core::HeartbeatMsg{9});
    });
  }
};

// Each crash fires on its victim's own shard at the planned instant; the
// crashed list comes back sorted by peer id rather than in firing order.
TEST(FaultInjector, ShardedCrashesFireOnTheVictimsShard) {
  ShardedFixture f;
  core::FaultInjector injector(FaultPlan::parse("crash@1s:5; crash@2s:3"),
                               f.transport);
  std::vector<std::int64_t> fired_at(f.world.population->size(), -1);
  injector.arm([&](PeerId victim) {
    fired_at[victim] = f.transport.simulator_for(victim).now().as_micros();
    f.transport.unregister_node(victim);
  });
  f.shards.run_until(SimTime::seconds(3.0));
  EXPECT_EQ(fired_at[5], SimTime::seconds(1.0).as_micros());
  EXPECT_EQ(fired_at[3], SimTime::seconds(2.0).as_micros());
  EXPECT_EQ(injector.crashed(), (std::vector<PeerId>{3, 5}));
  EXPECT_FALSE(f.transport.is_registered(5));
  EXPECT_FALSE(f.transport.is_registered(3));
}

// arm() declares each crash to the sharded transport, so a victim's
// message still in flight at its crash dies with it, like the single
// wheel's generation check.
TEST(FaultInjector, ShardedCrashSuppressesTheVictimsInFlightSends) {
  ShardedFixture f;
  core::FaultInjector injector(FaultPlan::parse("crash@1s:2"), f.transport);
  injector.arm(nullptr);
  const auto just_before =
      SimTime::micros(SimTime::seconds(1.0).as_micros() - 1);
  f.send_at(just_before, 2, 30);
  f.send_at(just_before, 4, 30);
  f.shards.run_until(SimTime::seconds(3.0));
  ASSERT_EQ(f.inbox[30].size(), 1u);
  EXPECT_EQ(f.inbox[30][0].from, 4u);
}

// Partition windows and burst loss act through the one admission step,
// so they drop sends on a sharded transport exactly as on the wheel.
TEST(FaultInjector, PartitionAndBurstActOnShardedTransport) {
  ShardedFixture f;
  core::FaultInjector injector(
      FaultPlan::parse("partition@0s-1s:1|2; burst@2s-3s:1.0"), f.transport);
  injector.arm(nullptr);
  f.send_at(SimTime::seconds(0.5), 1, 2);  // cross-partition: dropped
  f.send_at(SimTime::seconds(0.5), 1, 3);  // unaffected
  f.send_at(SimTime::seconds(2.5), 1, 3);  // inside the burst: dropped
  f.send_at(SimTime::seconds(3.5), 1, 2);  // both windows closed
  f.shards.run_until(SimTime::seconds(5.0));
  EXPECT_EQ(f.inbox[3].size(), 1u);
  EXPECT_EQ(f.inbox[2].size(), 1u);
  EXPECT_EQ(f.transport.messages_sent(), 4u);
  EXPECT_EQ(f.transport.messages_lost(), 2u);
}

// ------------------------------------------------- transport crash semantics

TEST(Transport, InFlightMessagesFromCrashedOriginAreSuppressed) {
  TransportFixture f;
  f.attach(2);
  f.attach(3);
  // 2 sends, then crashes before the message is delivered: the packet
  // must die with its origin instead of arriving from a ghost.
  f.transport.send(2, 3, core::HeartbeatMsg{9});
  f.transport.unregister_node(2);
  f.simulator.run();
  EXPECT_TRUE(f.inbox.empty());
  EXPECT_EQ(f.transport.messages_sent(), 1u);
}

TEST(Transport, GracefulDetachLetsInFlightSendsLand) {
  TransportFixture f;
  f.attach(2);
  f.attach(3);
  // 2 sends a final control message and detaches gracefully: unlike a
  // crash, the already-sent packet must still reach its peer.
  f.transport.send(2, 3, core::HeartbeatMsg{9});
  f.transport.unregister_node(2, core::DetachMode::kGraceful);
  f.simulator.run();
  ASSERT_EQ(f.inbox.size(), 1u);
  EXPECT_EQ(f.inbox[0].from, 2u);
}

TEST(Transport, ReRegisteringAfterCrashStartsACleanGeneration) {
  TransportFixture f;
  f.attach(2);
  f.attach(3);
  f.transport.send(2, 3, core::HeartbeatMsg{9});
  f.transport.unregister_node(2);
  f.attach(2);
  // The pre-crash packet stays dead, but the reincarnated node's traffic
  // flows normally.
  f.transport.send(2, 3, core::HeartbeatMsg{9});
  f.simulator.run();
  ASSERT_EQ(f.inbox.size(), 1u);
  EXPECT_EQ(f.inbox[0].from, 2u);
}

TEST(Transport, SendsFromNeverRegisteredDriversStillDeliver) {
  // Test drivers inject messages from peers that never registered a
  // handler; those must keep flowing (only a *crash* suppresses).
  TransportFixture f;
  f.attach(3);
  f.transport.send(0, 3, core::HeartbeatMsg{9});
  f.simulator.run();
  EXPECT_EQ(f.inbox.size(), 1u);
}

// ------------------------------------------------- option-range regressions

TEST(TransportOptionsValidation, RejectsOutOfRangeLossProbability) {
  testing::SmallWorld world(8, 1);
  sim::Simulator simulator;
  TransportOptions options;
  options.loss_probability = 1.5;
  EXPECT_THROW(
      Transport(simulator, *world.population, options, world.rng),
      PreconditionError);
  options.loss_probability = -0.1;
  EXPECT_THROW(
      Transport(simulator, *world.population, options, world.rng),
      PreconditionError);
}

TEST(ChurnOptionsValidation, RejectsOutOfRangeFailureFraction) {
  testing::SmallWorld world(8, 2);
  sim::Simulator simulator;
  overlay::OverlayGraph graph(8);
  overlay::HostCacheServer cache(*world.population,
                                 overlay::HostCacheOptions{}, world.rng);
  overlay::GroupCastBootstrap bootstrap(*world.population, graph, cache,
                                        overlay::BootstrapOptions{},
                                        world.rng);
  overlay::ChurnOptions options;
  options.failure_fraction = 1.5;
  EXPECT_THROW(overlay::ChurnModel(simulator, bootstrap, options, world.rng),
               PreconditionError);
  options.failure_fraction = -0.5;
  EXPECT_THROW(overlay::ChurnModel(simulator, bootstrap, options, world.rng),
               PreconditionError);
}

}  // namespace
}  // namespace groupcast
