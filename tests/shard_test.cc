// The sharded event kernel (sim/shard_set.h) and its determinism
// contract: a recovery scenario must produce byte-identical metrics,
// counters and histograms at every shard count >= 2, cross-shard delivery
// order must not depend on which epoch barrier merged a message, the
// transport's shared send path must account and deliver alike on the
// single wheel and on shards, and the shard-count preconditions must
// reject nonsense loudly.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <optional>
#include <set>
#include <thread>
#include <tuple>
#include <variant>
#include <vector>

#include "core/transport.h"
#include "metrics/experiment.h"
#include "sim/shard_set.h"
#include "test_helpers.h"
#include "trace/counters.h"
#include "trace/flight_recorder.h"
#include "util/require.h"
#include "util/rng.h"

namespace groupcast {
namespace {

/// A client with no cross-shard traffic: lets ShardSet be unit-tested as
/// a bare multi-wheel scheduler.
class NullClient : public sim::ShardSet::Client {
 public:
  void merge_inbound(std::size_t) override {}
  std::int64_t next_arrival_us(std::size_t) override { return -1; }
  std::size_t deliver_arrivals_at(std::size_t, std::int64_t) override {
    return 0;
  }
};

TEST(ShardSet, RunsTimersOnEveryShardAndCountsEvents) {
  sim::ShardSet shards(3, /*lookahead_us=*/500);
  NullClient client;
  shards.set_client(&client);
  std::atomic<int> fired{0};
  for (std::size_t i = 0; i < shards.num_shards(); ++i) {
    for (int k = 1; k <= 4; ++k) {
      shards.shard(i).schedule_at(sim::SimTime::millis(k),
                                  [&fired] { ++fired; });
    }
  }
  shards.run_until(sim::SimTime::millis(10));
  EXPECT_EQ(fired.load(), 12);
  EXPECT_EQ(shards.events_fired(), 12u);
  EXPECT_EQ(shards.now(), sim::SimTime::millis(10));
  const auto per_shard = shards.events_per_shard();
  ASSERT_EQ(per_shard.size(), 3u);
  EXPECT_EQ(per_shard[0] + per_shard[1] + per_shard[2], 12u);
  // Every shard clock fast-forwards to the deadline even when idle.
  for (std::size_t i = 0; i < shards.num_shards(); ++i) {
    EXPECT_EQ(shards.shard(i).now(), sim::SimTime::millis(10));
  }
}

TEST(ShardSet, ExecRunsOnDistinctWorkerThreads) {
  sim::ShardSet shards(4, /*lookahead_us=*/500);
  std::vector<std::thread::id> ids(shards.num_shards());
  shards.exec_on_shards(
      [&](std::size_t i) { ids[i] = std::this_thread::get_id(); });
  std::set<std::thread::id> unique(ids.begin(), ids.end());
  EXPECT_EQ(unique.size(), 4u);
  EXPECT_EQ(unique.count(std::this_thread::get_id()), 0u);
  // A second exec lands on the same workers (threads are persistent).
  std::vector<std::thread::id> again(shards.num_shards());
  shards.exec_on_shards(
      [&](std::size_t i) { again[i] = std::this_thread::get_id(); });
  EXPECT_EQ(ids, again);
}

/// One delivery observed by a receiver, in observation order.
using Delivery = std::tuple<overlay::PeerId, overlay::PeerId, std::uint64_t,
                            std::int64_t>;

/// Drives a burst of cross-peer DataMsg traffic through a sharded
/// transport and returns every delivery in per-receiver observation
/// order.  Sends are issued from *inside* shard events so they traverse
/// the real outbox / merge / arrival-queue machinery.
std::vector<Delivery> sharded_burst(std::size_t num_shards) {
  testing::SmallWorld world(/*peers=*/48, /*seed=*/7);
  sim::ShardSet shards(num_shards, /*lookahead_us=*/300);
  core::TransportOptions options;
  core::Transport transport(shards, *world.population, options, world.rng);

  std::vector<std::vector<Delivery>> by_receiver(world.population->size());
  for (overlay::PeerId p = 0; p < world.population->size(); ++p) {
    transport.register_node(p, [&by_receiver, p](const core::Envelope& env) {
      const auto& data = std::get<core::DataMsg>(env.body);
      by_receiver[p].push_back(
          {env.from, env.to, data.payload_id, 0});
    });
  }
  // Every peer fires three staggered bursts, each fanning out to a fixed
  // window of other peers — plenty of same-instant cross-shard arrivals.
  for (overlay::PeerId p = 0; p < world.population->size(); ++p) {
    for (int burst = 0; burst < 3; ++burst) {
      transport.simulator_for(p).schedule_at(
          sim::SimTime::millis(1 + burst * 2), [&transport, p, burst] {
            for (overlay::PeerId d = 1; d <= 5; ++d) {
              const auto to = static_cast<overlay::PeerId>((p + d) % 48);
              core::DataMsg msg;
              msg.origin = p;
              msg.payload_id =
                  static_cast<std::uint64_t>(burst) * 1000 + p * 10 + d;
              transport.send(p, to, msg);
            }
          });
    }
  }
  // Transit-stub paths reach hundreds of ms; leave room for every tail.
  shards.run_until(sim::SimTime::seconds(2));
  std::vector<Delivery> flat;
  for (const auto& one : by_receiver) {
    flat.insert(flat.end(), one.begin(), one.end());
  }
  EXPECT_EQ(flat.size(), 48u * 3u * 5u);
  return flat;
}

// The ordering golden: the per-receiver delivery sequence (who, what,
// in which order) is a pure function of the traffic, not of the shard
// count — the arrival queues order by (arrival, src, send counter)
// regardless of which epoch barrier merged each record.
TEST(ShardSet, CrossShardDeliveryOrderInvariantAcrossShardCounts) {
  const auto two = sharded_burst(2);
  const auto four = sharded_burst(4);
  const auto seven = sharded_burst(7);
  EXPECT_EQ(two, four);
  EXPECT_EQ(two, seven);
}

// ------------------------------------------- one transport, both kernels

/// What a burst of mixed-kind traffic left behind: every delivery as
/// (from, to, message id, arrival µs), sorted, plus the message accounts.
struct TrafficRun {
  std::vector<Delivery> deliveries;
  core::MessageStats stats;
  std::size_t sent = 0;
  std::size_t lost = 0;
  std::size_t bytes = 0;
};

/// The body a sender emits for message `id`: the kind rotates so every
/// per-kind account is exercised, and the id rides in the group field.
core::MessageBody traffic_body(std::uint32_t id, std::uint32_t chunk_bytes) {
  switch (id % 5) {
    case 0: return core::AdvertiseMsg{id, 0, 3};
    case 1: return core::JoinMsg{id, 0};
    case 2: return core::HeartbeatMsg{id};
    case 3: {
      core::ChunkMsg chunk;
      chunk.group = id;
      chunk.payload_bytes = chunk_bytes;
      return chunk;
    }
    default: {
      core::DataMsg data;
      data.group = id;
      return data;
    }
  }
}

/// Drives the same traffic as sharded_burst (every peer, three staggered
/// bursts, five receivers each) on the single wheel (`num_shards` == 1) or
/// a ShardSet.  Sends are issued from the sender's own simulator and
/// arrivals are timed on the receiver's, so both kernels run unchanged.
TrafficRun drive_traffic(std::size_t num_shards,
                         const core::TransportOptions& options,
                         std::uint32_t chunk_bytes = 64) {
  testing::SmallWorld world(/*peers=*/48, /*seed=*/7);
  sim::Simulator wheel;
  std::optional<sim::ShardSet> shards;
  std::optional<core::Transport> kernel_transport;
  if (num_shards == 1) {
    kernel_transport.emplace(wheel, *world.population, options, world.rng);
  } else {
    shards.emplace(num_shards, /*lookahead_us=*/300);
    kernel_transport.emplace(*shards, *world.population, options, world.rng);
  }
  auto& transport = *kernel_transport;
  const auto peers = world.population->size();
  std::vector<std::vector<Delivery>> by_receiver(peers);
  for (overlay::PeerId p = 0; p < peers; ++p) {
    transport.register_node(p, [&transport, &by_receiver, p](const core::Envelope& env) {
      const auto id = std::visit([](const auto& m) { return m.group; },
                                 env.body);
      by_receiver[p].push_back({env.from, env.to, id,
                                transport.simulator_for(p).now().as_micros()});
    });
  }
  for (overlay::PeerId p = 0; p < peers; ++p) {
    for (std::uint32_t burst = 0; burst < 3; ++burst) {
      transport.simulator_for(p).schedule_at(
          sim::SimTime::millis(1 + burst * 2),
          [&transport, p, burst, peers, chunk_bytes] {
            for (overlay::PeerId d = 1; d <= 5; ++d) {
              const auto to = static_cast<overlay::PeerId>((p + d) % peers);
              const auto id = static_cast<std::uint32_t>(
                  burst * 1000 + p * 10 + d);
              transport.send(p, to, traffic_body(id, chunk_bytes));
            }
          });
    }
  }
  // Transit-stub paths reach hundreds of ms; leave room for every tail.
  const auto deadline = sim::SimTime::seconds(4);
  if (shards) {
    shards->run_until(deadline);
  } else {
    wheel.run_until(deadline);
  }
  TrafficRun run;
  for (const auto& one : by_receiver) {
    run.deliveries.insert(run.deliveries.end(), one.begin(), one.end());
  }
  std::sort(run.deliveries.begin(), run.deliveries.end());
  run.stats = transport.stats();
  run.sent = transport.messages_sent();
  run.lost = transport.messages_lost();
  run.bytes = transport.bytes_sent();
  return run;
}

constexpr std::size_t kTrafficSends = 48u * 3u * 5u;

void expect_same_accounts(const TrafficRun& a, const TrafficRun& b) {
  for (std::size_t k = 0; k < core::kMessageKinds; ++k) {
    const auto kind = static_cast<core::MessageKind>(k);
    EXPECT_EQ(a.stats.of(kind), b.stats.of(kind)) << "kind " << k;
  }
  EXPECT_EQ(a.sent, b.sent);
  EXPECT_EQ(a.lost, b.lost);
  EXPECT_EQ(a.bytes, b.bytes);
}

// Loss-free, the two kernels differ only in how a send is enqueued: the
// accounts summed over shard_state_ and every (sender, receiver, message,
// arrival time) must match the single wheel exactly.
TEST(ShardedTransport, AccountsAndDeliveriesMatchSingleWheel) {
  const core::TransportOptions options;
  const auto wheel = drive_traffic(1, options);
  EXPECT_EQ(wheel.sent, kTrafficSends);
  EXPECT_EQ(wheel.lost, 0u);
  EXPECT_EQ(wheel.deliveries.size(), kTrafficSends);
  EXPECT_GT(wheel.stats.advertisement_messages(), 0u);
  EXPECT_GT(wheel.stats.subscription_messages(), 0u);
  EXPECT_GT(wheel.stats.of(core::MessageKind::kMaintenance), 0u);
  EXPECT_GT(wheel.stats.of(core::MessageKind::kPayload), 0u);
  for (const std::size_t shards : {2u, 4u}) {
    const auto sharded = drive_traffic(shards, options);
    expect_same_accounts(wheel, sharded);
    EXPECT_EQ(wheel.deliveries, sharded.deliveries) << shards << " shards";
  }
}

// Uplink pacing is part of the shared admission step, so capped access
// links delay the same sends by the same amount on both kernels.
TEST(ShardedTransport, PacedDeliveriesMatchSingleWheel) {
  core::TransportOptions options;
  options.bandwidth.uplink_kbps = 256;
  options.bandwidth.downlink_kbps = 1024;
  const auto uncapped = drive_traffic(1, core::TransportOptions{}, 4000);
  const auto wheel = drive_traffic(1, options, 4000);
  const auto sharded = drive_traffic(2, options, 4000);
  expect_same_accounts(wheel, sharded);
  EXPECT_EQ(wheel.deliveries, sharded.deliveries);
  // The caps bind: the same messages arrive, later in total.
  ASSERT_EQ(uncapped.deliveries.size(), wheel.deliveries.size());
  std::int64_t uncapped_us = 0, paced_us = 0;
  for (std::size_t i = 0; i < wheel.deliveries.size(); ++i) {
    uncapped_us += std::get<3>(uncapped.deliveries[i]);
    paced_us += std::get<3>(wheel.deliveries[i]);
  }
  EXPECT_GT(paced_us, uncapped_us);
}

// At p = 1 the sharded loss draw drops every send, and a dropped send is
// still counted as sent.
TEST(ShardedTransport, LossOneDropsEverySend) {
  core::TransportOptions options;
  options.loss_probability = 1.0;
  const auto run = drive_traffic(2, options);
  EXPECT_TRUE(run.deliveries.empty());
  EXPECT_EQ(run.sent, kTrafficSends);
  EXPECT_EQ(run.lost, kTrafficSends);
  EXPECT_EQ(run.stats.total(), kTrafficSends);
}

// The sharded loss draw hashes (seed, sender, per-sender counter), so the
// messages that die are the same at every shard count.
TEST(ShardedTransport, LossDrawsIndependentOfShardCount) {
  core::TransportOptions options;
  options.loss_probability = 0.3;
  const auto two = drive_traffic(2, options);
  const auto four = drive_traffic(4, options);
  expect_same_accounts(two, four);
  EXPECT_EQ(two.deliveries, four.deliveries);
  EXPECT_EQ(two.sent - two.lost, two.deliveries.size());
  EXPECT_GT(two.lost, kTrafficSends / 6);
  EXPECT_LT(two.lost, kTrafficSends / 2);
}

// A declared crash suppresses exactly the sender's messages in flight at
// the crash instant; what it sends afterwards (as a restarted node would)
// still lands.
TEST(ShardedTransport, DeclaredCrashSuppressesOnlyInFlightSends) {
  testing::SmallWorld world(/*peers=*/48, /*seed=*/7);
  sim::ShardSet shards(2, /*lookahead_us=*/300);
  core::Transport transport(shards, *world.population,
                            core::TransportOptions{}, world.rng);
  std::vector<std::vector<overlay::PeerId>> senders(world.population->size());
  for (overlay::PeerId p = 0; p < world.population->size(); ++p) {
    transport.register_node(p, [&senders, p](const core::Envelope& env) {
      senders[p].push_back(env.from);
    });
  }
  const overlay::PeerId victim = 5, bystander = 6, receiver = 20;
  for (const auto from : {victim, bystander}) {
    for (const double at_ms : {1.0, 3.0}) {
      transport.simulator_for(from).schedule_at(
          sim::SimTime::millis(at_ms), [&transport, from] {
            transport.send(from, receiver, core::HeartbeatMsg{1});
          });
    }
  }
  // One microsecond after the first send: that copy is still in flight.
  transport.declare_crash(victim, sim::SimTime::micros(1001));
  shards.run_until(sim::SimTime::seconds(2));
  auto got = senders[receiver];
  std::sort(got.begin(), got.end());
  EXPECT_EQ(got, (std::vector<overlay::PeerId>{victim, bystander, bystander}));
  EXPECT_EQ(transport.messages_sent(), 4u);
  // Suppression happens at arrival, not as a loss at send time.
  EXPECT_EQ(transport.messages_lost(), 0u);
}

TEST(ShardedTransport, DeclareCrashIsShardedOnly) {
  testing::SmallWorld world(/*peers=*/16, /*seed=*/7);
  sim::Simulator wheel;
  core::Transport transport(wheel, *world.population,
                            core::TransportOptions{}, world.rng);
  EXPECT_THROW(transport.declare_crash(1, sim::SimTime::seconds(1)),
               PreconditionError);
}

// Peers are sharded by access router, and simulator_for resolves to the
// peer's own shard; on the single wheel every peer resolves to the wheel.
TEST(ShardedTransport, ShardsFollowAccessRouters) {
  testing::SmallWorld world(/*peers=*/48, /*seed=*/7);
  const auto& population = *world.population;
  {
    sim::Simulator wheel;
    core::Transport transport(wheel, population, core::TransportOptions{},
                              world.rng);
    EXPECT_FALSE(transport.sharded());
    for (overlay::PeerId p = 0; p < population.size(); ++p) {
      EXPECT_EQ(transport.shard_of(p), 0u);
      EXPECT_EQ(&transport.simulator_for(p), &wheel);
    }
  }
  sim::ShardSet shards(4, /*lookahead_us=*/300);
  core::Transport transport(shards, population, core::TransportOptions{},
                            world.rng);
  EXPECT_TRUE(transport.sharded());
  std::set<std::size_t> used;
  for (overlay::PeerId p = 0; p < population.size(); ++p) {
    const auto shard = transport.shard_of(p);
    ASSERT_LT(shard, shards.num_shards());
    used.insert(shard);
    EXPECT_EQ(&transport.simulator_for(p), &shards.shard(shard));
    for (overlay::PeerId q = 0; q < p; ++q) {
      if (population.info(q).router == population.info(p).router) {
        EXPECT_EQ(transport.shard_of(q), shard) << p << " and " << q;
      }
    }
  }
  EXPECT_GT(used.size(), 1u);
}

metrics::ScenarioConfig shard_point(std::size_t shards) {
  metrics::ScenarioConfig point;
  point.peer_count = 200;
  point.groups = 1;
  point.seed = 4242;
  point.shards = shards;
  point.recovery.enabled = true;
  point.recovery.loss_probability = 0.2;
  point.recovery.crash_fraction = 0.3;
  return point;
}

// The tentpole's determinism contract: every metric field, the counter
// totals and the histogram bins of a hostile recovery run are
// byte-identical at shard counts 2, 4 and 8.
TEST(ShardDeterminism, RecoveryResultsIdenticalAcrossShardCounts) {
  metrics::GridOptions options;
  options.repetitions = 1;
  options.counters = true;
  options.histograms = true;

  std::vector<metrics::ScenarioResult> results;
  for (const std::size_t shards : {2u, 4u, 8u}) {
    const std::vector<metrics::ScenarioConfig> points{shard_point(shards)};
    auto reduced = metrics::run_scenario_grid(points, options);
    ASSERT_EQ(reduced.size(), 1u);
    results.push_back(std::move(reduced.front()));
  }
  const auto& base = results.front();
  ASSERT_EQ(base.events_per_shard.size(), 2u);
  for (std::size_t i = 1; i < results.size(); ++i) {
    const auto& other = results[i];
    EXPECT_EQ(base.delivery_ratio, other.delivery_ratio);
    EXPECT_EQ(base.reattached_fraction, other.reattached_fraction);
    EXPECT_EQ(base.mean_orphan_epochs, other.mean_orphan_epochs);
    EXPECT_EQ(base.epochs_to_converge, other.epochs_to_converge);
    EXPECT_EQ(base.control_overhead, other.control_overhead);
    EXPECT_EQ(base.invariant_violations, other.invariant_violations);
    EXPECT_EQ(base.subscription_success_rate,
              other.subscription_success_rate);
    EXPECT_EQ(base.subscription_messages, other.subscription_messages);
    EXPECT_EQ(base.avg_tree_nodes, other.avg_tree_nodes);
    EXPECT_EQ(base.counters.totals, other.counters.totals);
    EXPECT_EQ(base.counters.per_node, other.counters.per_node);
    EXPECT_EQ(base.histograms.data, other.histograms.data);
    // The total workload is invariant; only its split across shards moves.
    EXPECT_EQ(base.events_fired, other.events_fired);
    EXPECT_EQ(other.events_per_shard.size(), i == 1 ? 4u : 8u);
    std::uint64_t sum = 0;
    for (const auto events : other.events_per_shard) sum += events;
    EXPECT_EQ(sum, other.events_fired);
  }
  // The sharded run exercised the same machinery as the single wheel.
  EXPECT_GT(base.counters.total(trace::CounterId::kControlRetries), 0u);
  EXPECT_GT(base.counters.total(trace::CounterId::kHeartbeats), 0u);
  EXPECT_DOUBLE_EQ(base.reattached_fraction, 1.0);
  EXPECT_DOUBLE_EQ(base.invariant_violations, 0.0);
}

// The two determinism domains differ only in the transport's loss draw and
// enqueue, so on loss-free cells the single wheel and the sharded kernel
// must agree on every outcome and on the message and counter accounts
// (events_fired and queue_high_water are kernel bookkeeping and may not).
void expect_same_outcome(const metrics::ScenarioResult& a,
                         const metrics::ScenarioResult& b) {
  EXPECT_EQ(a.delivery_ratio, b.delivery_ratio);
  EXPECT_EQ(a.reattached_fraction, b.reattached_fraction);
  EXPECT_EQ(a.mean_orphan_epochs, b.mean_orphan_epochs);
  EXPECT_EQ(a.epochs_to_converge, b.epochs_to_converge);
  EXPECT_EQ(a.invariant_violations, b.invariant_violations);
  EXPECT_EQ(a.subscription_success_rate, b.subscription_success_rate);
  EXPECT_EQ(a.chunk_miss_ratio, b.chunk_miss_ratio);
  EXPECT_EQ(a.startup_delay_ms, b.startup_delay_ms);
  EXPECT_EQ(a.flash_attach_fraction, b.flash_attach_fraction);
  EXPECT_EQ(a.advertisement_messages, b.advertisement_messages);
  EXPECT_EQ(a.subscription_messages, b.subscription_messages);
  EXPECT_EQ(a.counters.totals, b.counters.totals);
}

metrics::ScenarioResult run_with_counters(const metrics::ScenarioConfig& point) {
  metrics::GridOptions options;
  options.counters = true;
  const std::vector<metrics::ScenarioConfig> points{point};
  return metrics::run_scenario_grid(points, options).front();
}

TEST(ShardDeterminism, LossFreeRecoveryAgreesAcrossDomains) {
  auto point = shard_point(1);
  point.peer_count = 600;
  point.recovery.loss_probability = 0.0;
  const auto wheel = run_with_counters(point);
  EXPECT_GT(wheel.counters.total(trace::CounterId::kMessagesSent), 0u);
  for (const std::size_t shards : {2u, 4u}) {
    point.shards = shards;
    expect_same_outcome(wheel, run_with_counters(point));
  }
}

TEST(ShardDeterminism, LossFreeFlashCrowdStreamAgreesAcrossDomains) {
  metrics::ScenarioConfig point;
  point.peer_count = 400;
  point.groups = 1;
  point.seed = 3;
  point.streaming.enabled = true;
  point.streaming.chunks = 20;
  point.streaming.reliable_data = true;
  point.streaming.flow_control = true;
  point.streaming.flash_crowd_joins = 50;
  const auto wheel = run_with_counters(point);
  EXPECT_GT(wheel.counters.total(trace::CounterId::kChunksDelivered), 0u);
  point.shards = 2;
  expect_same_outcome(wheel, run_with_counters(point));
}

TEST(ShardDeterminism, ShardCountValidation) {
  auto zero = shard_point(0);
  EXPECT_THROW(metrics::run_scenario(zero), PreconditionError);
  auto oversubscribed = shard_point(4);
  oversubscribed.peer_count = 3;
  EXPECT_THROW(metrics::run_scenario(oversubscribed), PreconditionError);
  metrics::ScenarioConfig engine_level;
  engine_level.peer_count = 64;
  engine_level.groups = 1;
  engine_level.shards = 2;
  EXPECT_THROW(metrics::run_scenario(engine_level), PreconditionError);
}

TEST(ShardDeterminism, FlightRecorderRefusesShardedRuns) {
  trace::FlightRecorder recorder;
  recorder.enable();
  trace::ScopedFlightRecorder guard(recorder);
  auto point = shard_point(2);
  EXPECT_THROW(metrics::run_scenario(point), PreconditionError);
}

}  // namespace
}  // namespace groupcast
