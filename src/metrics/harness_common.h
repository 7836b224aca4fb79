// Internals shared by the node-runtime harnesses (metrics/recovery.h and
// metrics/streaming.h): the one scaffold both run their phases on — the
// event kernel (the middleware's single wheel, or a ShardSet of
// conservative-lookahead shards), the transport, one GroupCastNode per
// peer, the application retry loop and the result tail — plus the
// lookahead bound and per-shard trace registries behind the sharded
// kernel.  Every single-wheel/sharded decision of a harness run is made
// here.  Not part of the public metrics API.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "core/middleware.h"
#include "core/node.h"
#include "core/transport.h"
#include "metrics/experiment.h"
#include "net/topology.h"
#include "overlay/population.h"
#include "sim/recorder.h"
#include "sim/shard_set.h"
#include "util/rng.h"

namespace groupcast::metrics::detail {

/// Tree-edge heartbeat period of every harness node.
inline constexpr sim::SimTime kHeartbeatInterval = sim::SimTime::millis(500);
/// Heartbeat intervals without an ack before a parent is declared dead.
/// The node default (2, the paper's two-miss rule) is tuned for a quiet
/// network; under steady loss p an ack round-trip survives with
/// (1-p)^2, so the harnesses widen the window to keep the false-positive
/// rate negligible at the sweeps' loss levels.
inline constexpr std::size_t kHeartbeatMisses = 6;
/// Length of one convergence epoch: the application retry delay, the
/// settle step and the flight-recorder period.  Recovery injects churn
/// over one epoch and then observes re-convergence epoch by epoch.
inline constexpr sim::SimTime kEpoch = sim::SimTime::seconds(4.0);
/// Epochs a harness waits for (re-)convergence before giving up.
inline constexpr std::size_t kConvergenceEpochs = 10;

/// Conservative lookahead of the sharded kernel, in microseconds.  Peers
/// are sharded by access router, so every cross-shard message crosses at
/// least one underlay link and pays two (distinct) access latencies: its
/// delay is bounded below by the two smallest access latencies in the
/// population plus the cheapest physical link.  One microsecond of
/// headroom absorbs the float-sum rounding between this bound and the
/// per-pair latency the transport actually converts.  (Bandwidth pacing
/// only ever *adds* delay on top of that latency, so the bound holds
/// unchanged for capped runs.)
std::int64_t shard_lookahead_us(const net::UnderlayTopology& underlay,
                                const overlay::PeerPopulation& population);

struct ShardTrace;

/// The node runtime of one harness run.  Construction builds, in this
/// order: the scenario's middleware, the harness RNG stream split off it,
/// the event kernel (a ShardSet when config.shards >= 2), the transport,
/// the per-shard trace registries, and one started node per peer.  The
/// harness then drives its own phases through advance() and the node
/// table, and ends with finish().
class NodeRuntime {
 public:
  /// The harness's own node settings (reliability, replication,
  /// impairments), applied per peer on top of the shared base.
  using Configure = std::function<void(overlay::PeerId, core::NodeOptions&)>;

  /// Every node starts from the same base options: the scenario's
  /// advertisement scheme and ripple TTL, kHeartbeatInterval and
  /// kHeartbeatMisses.  `configure` then adjusts each peer's copy.
  NodeRuntime(const ScenarioConfig& config,
              const core::TransportOptions& transport_options,
              const Configure& configure);
  ~NodeRuntime();

  NodeRuntime(const NodeRuntime&) = delete;
  NodeRuntime& operator=(const NodeRuntime&) = delete;

  core::GroupCastMiddleware& middleware() { return *middleware_; }
  util::Rng& rng() { return rng_; }
  core::Transport& transport() { return *transport_; }
  std::vector<std::unique_ptr<core::GroupCastNode>>& nodes() {
    return nodes_;
  }

  /// Runs the kernel `by` past the previous target.
  void advance(sim::SimTime by);
  /// The target of the last advance (zero before the first).
  sim::SimTime clock() const { return clock_; }
  /// The kernel's global clock.
  sim::SimTime now() const;

  /// Arms one flight-recorder frame per kEpoch when the facility is on (a
  /// disabled run schedules nothing).  The recorder snapshots global state
  /// from an event handler, which has no safe home on a sharded run, so
  /// that is refused.
  void arm_flight_recorder();

  /// Application-level retry loop: once `p` wants its groups, a subscribe
  /// ladder that gives up re-subscribes one kEpoch later, as a real client
  /// would, until stop_wanting(p).  The want flags are one byte per peer,
  /// each only touched from its peer's own shard, so no lock is needed.
  void want_subscriptions(overlay::PeerId p);
  void stop_wanting(overlay::PeerId p) { want_[p] = 0; }

  /// Advances kEpoch by kEpoch, at most kConvergenceEpochs times, until no
  /// peer in `peers` has a subscribe exchange pending on any of `groups`.
  void settle(const std::vector<overlay::PeerId>& peers,
              const std::vector<core::GroupId>& groups);

  /// The result tail: repair edges, the per-kind message accounts, event
  /// totals, the folded counter and histogram snapshots, and the
  /// flight-recorder timeline when one was armed.
  void finish(ScenarioResult& result);

 private:
  void resubscribe_later(overlay::PeerId p, core::GroupId g);

  // Declaration order is teardown order reversed: the nodes go before the
  // transport, and the transport (the ShardSet client) before the kernel.
  std::unique_ptr<core::GroupCastMiddleware> middleware_;
  util::Rng rng_;
  sim::SimTime clock_ = sim::SimTime::zero();
  std::optional<sim::ShardSet> engine_;
  std::optional<core::Transport> transport_;
  std::vector<std::unique_ptr<ShardTrace>> shard_trace_;
  std::vector<std::unique_ptr<core::GroupCastNode>> nodes_;
  std::vector<char> want_;
  std::optional<sim::PeriodicRecorder> recorder_;
};

}  // namespace groupcast::metrics::detail
