#include "metrics/harness_common.h"

#include <algorithm>
#include <limits>

#include "sim/time.h"
#include "trace/counters.h"
#include "trace/flight_recorder.h"
#include "trace/histogram.h"
#include "util/require.h"

namespace groupcast::metrics::detail {

/// Per-shard trace facilities: worker threads resolve trace::counters() /
/// trace::histograms() thread-locally, so each shard gets its own
/// registry (installed on the worker via exec_on_shards) and the
/// snapshots merge into the caller's registry at the end — integer sums,
/// hence shard-count invariant.
struct ShardTrace {
  trace::CounterRegistry counters;
  trace::HistogramRegistry histograms;
  std::unique_ptr<trace::ScopedCounterRegistry> counter_guard;
  std::unique_ptr<trace::ScopedHistogramRegistry> histogram_guard;
};

namespace {

// Installs one ShardTrace per shard (none when the caller collects
// nothing): each shard's worker thread gets isolated registries so the
// run's samples never contend and merge deterministically.
std::vector<std::unique_ptr<ShardTrace>> install_shard_trace(
    sim::ShardSet& engine, std::size_t peer_count) {
  std::vector<std::unique_ptr<ShardTrace>> shard_trace;
  if (!trace::counters().enabled() && !trace::histograms().enabled()) {
    return shard_trace;
  }
  for (std::size_t i = 0; i < engine.num_shards(); ++i) {
    auto per_shard = std::make_unique<ShardTrace>();
    if (trace::counters().enabled()) {
      per_shard->counters.enable(peer_count);
    }
    if (trace::histograms().enabled()) per_shard->histograms.enable();
    shard_trace.push_back(std::move(per_shard));
  }
  engine.exec_on_shards([&](std::size_t i) {
    shard_trace[i]->counter_guard =
        std::make_unique<trace::ScopedCounterRegistry>(
            shard_trace[i]->counters);
    shard_trace[i]->histogram_guard =
        std::make_unique<trace::ScopedHistogramRegistry>(
            shard_trace[i]->histograms);
  });
  return shard_trace;
}

// Parks the workers' registries and folds the per-shard snapshots into
// the caller's (merge is a no-op while the caller's are disabled).
void fold_shard_trace(sim::ShardSet& engine,
                      std::vector<std::unique_ptr<ShardTrace>>& shard_trace) {
  if (shard_trace.empty()) return;
  engine.exec_on_shards([&](std::size_t i) {
    shard_trace[i]->histogram_guard.reset();
    shard_trace[i]->counter_guard.reset();
  });
  for (const auto& per_shard : shard_trace) {
    trace::counters().merge(per_shard->counters.snapshot());
    trace::histograms().merge(per_shard->histograms.snapshot());
  }
}

}  // namespace


std::int64_t shard_lookahead_us(const net::UnderlayTopology& underlay,
                                const overlay::PeerPopulation& population) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  double first = kInf, second = kInf;
  for (const auto& peer : population.peers()) {
    const double access = peer.access_latency_ms;
    if (access < first) {
      second = first;
      first = access;
    } else if (access < second) {
      second = access;
    }
  }
  double min_link = kInf;
  for (net::LinkId l = 0; l < underlay.link_count(); ++l) {
    min_link = std::min(min_link, underlay.link(l).latency_ms);
  }
  const double bound_ms = first + second + min_link;
  GC_REQUIRE_MSG(bound_ms > 0.0 && bound_ms < kInf,
                 "sharded execution needs a positive cross-router latency "
                 "floor (>= 2 peers and >= 1 underlay link)");
  return std::max<std::int64_t>(
      1, sim::SimTime::millis(bound_ms).as_micros() - 1);
}

NodeRuntime::NodeRuntime(const ScenarioConfig& config,
                         const core::TransportOptions& transport_options,
                         const Configure& configure) {
  GC_REQUIRE_MSG(config.shards >= 1, "config.shards must be >= 1");
  GC_REQUIRE_MSG(config.shards <= config.peer_count,
                 "config.shards must not exceed peer_count");
  // Deployment: the middleware builds underlay + population + overlay from
  // config.seed; the harness splits its own RNG stream off the same source
  // so a (config, seed) pair is one deterministic trajectory whatever the
  // grid's job count.
  middleware_ = make_scenario_middleware(config);
  rng_ = middleware_->rng().split();
  auto& wheel = middleware_->simulator();
  if (config.shards > 1) {
    // Sharded kernel: per-shard wheels advancing in conservative-lookahead
    // epochs instead of the middleware's single wheel.  Worker threads
    // resolve the trace facilities thread-locally, so each shard gets its
    // own registries, folded back in by finish().
    engine_.emplace(config.shards,
                    shard_lookahead_us(middleware_->underlay(),
                                       middleware_->population()),
                    wheel.now());
    transport_.emplace(*engine_, middleware_->population(), transport_options,
                       rng_);
    shard_trace_ = install_shard_trace(*engine_, config.peer_count);
  } else {
    transport_.emplace(wheel, middleware_->population(), transport_options,
                       rng_);
  }
  core::NodeOptions base;
  base.advertisement = config.middleware_config().advertisement;
  base.ripple_ttl = config.ripple_ttl;
  base.heartbeat_interval = kHeartbeatInterval;
  base.missed_heartbeats_to_fail = kHeartbeatMisses;
  nodes_.reserve(config.peer_count);
  for (overlay::PeerId p = 0; p < config.peer_count; ++p) {
    auto options = base;
    configure(p, options);
    nodes_.push_back(std::make_unique<core::GroupCastNode>(
        p, *transport_, middleware_->graph(), options, rng_));
    nodes_.back()->start();
  }
  want_.assign(config.peer_count, 0);
}

NodeRuntime::~NodeRuntime() = default;

void NodeRuntime::advance(sim::SimTime by) {
  clock_ = clock_ + by;
  if (engine_) {
    engine_->run_until(clock_);
  } else {
    middleware_->simulator().run_until(clock_);
  }
}

sim::SimTime NodeRuntime::now() const {
  return engine_ ? engine_->now() : middleware_->simulator().now();
}

void NodeRuntime::arm_flight_recorder() {
  if (!trace::flight_recorder().enabled()) return;
  GC_REQUIRE_MSG(!engine_,
                 "the flight recorder requires the single-wheel engine "
                 "(run with shards == 1)");
  auto& wheel = middleware_->simulator();
  trace::flight_recorder().capture(wheel.now().as_micros());
  recorder_.emplace(wheel, kEpoch);
}

void NodeRuntime::want_subscriptions(overlay::PeerId p) {
  want_[p] = 1;
  nodes_[p]->on_subscribe_result([this, p](core::GroupId g, bool success) {
    if (!success && want_[p] != 0) resubscribe_later(p, g);
  });
}

void NodeRuntime::resubscribe_later(overlay::PeerId p, core::GroupId g) {
  auto& node_sim = transport_->simulator_for(p);
  node_sim.schedule_at(node_sim.now() + kEpoch, [this, p, g] {
    if (want_[p] != 0 && nodes_[p]->running() &&
        !nodes_[p]->is_subscribed(g)) {
      nodes_[p]->subscribe(g);
    }
  });
}

void NodeRuntime::settle(const std::vector<overlay::PeerId>& peers,
                         const std::vector<core::GroupId>& groups) {
  for (std::size_t e = 0; e < kConvergenceEpochs; ++e) {
    advance(kEpoch);
    const bool settled =
        std::all_of(peers.begin(), peers.end(), [&](overlay::PeerId p) {
          return std::none_of(groups.begin(), groups.end(),
                              [&](core::GroupId g) {
                                return nodes_[p]->exchange_pending(g);
                              });
        });
    if (settled) break;
  }
}

void NodeRuntime::finish(ScenarioResult& result) {
  result.repair_edges = middleware_->connectivity_repair_edges();
  const auto stats = transport_->stats();
  result.advertisement_messages =
      static_cast<double>(stats.advertisement_messages());
  result.subscription_messages =
      static_cast<double>(stats.subscription_messages());
  if (engine_) {
    result.events_fired = engine_->events_fired();
    // Per-shard wheels each track a high-water mark; a cross-shard
    // maximum would vary with the shard count, so the sharded engine
    // reports 0 here (documented in PERFORMANCE.md).
    result.queue_high_water = 0;
    result.events_per_shard = engine_->events_per_shard();
    fold_shard_trace(*engine_, shard_trace_);
  } else {
    result.events_fired = middleware_->simulator().events_fired();
    result.queue_high_water = middleware_->simulator().queue_high_water();
  }
  if (trace::counters().enabled()) {
    result.counters = trace::counters().snapshot();
  }
  if (trace::histograms().enabled()) {
    result.histograms = trace::histograms().snapshot();
  }
  if (recorder_) {
    // A final frame so the timeline's last point reflects the settled
    // end state even when convergence beat the periodic capture.
    trace::flight_recorder().capture(clock_.as_micros());
    result.timeline = trace::flight_recorder().frames();
  }
}

}  // namespace groupcast::metrics::detail
