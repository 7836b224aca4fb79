// Output checks, computed apart from the program: each takes plain data
// (parent maps, latencies, delivery logs) and recomputes what must hold,
// so a hand-made wrong output can be fed to it (run_self_tests).
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <unordered_map>
#include <vector>

#include "overlay/peer.h"

namespace groupcast::perfbench {

using overlay::PeerId;
using Violations = std::vector<std::string>;

/// A spanning tree as a parent map (the root maps to itself).
struct TreeView {
  PeerId root = overlay::kNoPeer;
  std::unordered_map<PeerId, PeerId> parent;
  std::vector<PeerId> subscribers;
};

using EdgePredicate = std::function<bool(PeerId, PeerId)>;
using LatencyMs = std::function<double(PeerId, PeerId)>;

/// Every tree edge is an allowed edge (an overlay edge, or the unicast link
/// a ripple-search join makes), and every subscriber's parent chain reaches
/// the root without a cycle.
void check_tree(const TreeView& tree, const EdgePredicate& edge_ok,
                Violations& out);

/// Each subscriber's session delay equals the summed latency along its
/// tree path from the root (recomputed here), and is never below the
/// direct root-to-subscriber latency.
void check_session_delays(const TreeView& tree, const LatencyMs& latency,
                          const std::unordered_map<PeerId, double>& delay_ms,
                          Violations& out);

/// Every peer holding the advertisement got it from an overlay neighbour.
void check_advert_parents(const std::vector<PeerId>& parent,
                          PeerId rendezvous, const EdgePredicate& overlay_edge,
                          Violations& out);

/// One application-level delivery seen by the benchmark's own callback.
struct Delivery {
  PeerId receiver = overlay::kNoPeer;
  PeerId origin = overlay::kNoPeer;
  std::uint64_t payload = 0;
  std::int64_t at_us = 0;
};

struct DeliveryRules {
  /// True if `receiver` belongs to the group `origin` published into.
  std::function<bool(PeerId receiver, PeerId origin)> is_member;
  std::function<bool(PeerId)> crashed;
  /// Publish instant of (origin, payload), or -1 if never published.
  std::function<std::int64_t(PeerId, std::uint64_t)> published_us;
  /// Direct origin-to-receiver latency in microseconds.
  std::function<std::int64_t(PeerId, PeerId)> direct_us;
};

/// No (receiver, origin, payload) delivered twice, none to a crashed node
/// or a non-member, none of an unpublished payload, and none earlier than
/// publish time plus the direct latency.  SimTime truncates each hop's
/// latency to whole microseconds, so a path may undercut the direct bound
/// by at most one microsecond per hop: kHopSlackUs covers any tree depth
/// the workloads reach.
inline constexpr std::int64_t kHopSlackUs = 64;
void check_deliveries(const std::vector<Delivery>& log,
                      const DeliveryRules& rules, Violations& out);

/// Per-kind message counts must sum to the transport's total.
void check_kind_sum(const std::vector<std::size_t>& kinds, std::size_t total,
                    Violations& out);

/// Feeds every checker a hand-made wrong output and reports each checker
/// that accepted it.  Empty result = every checker rejects its fault.
Violations run_self_tests();

}  // namespace groupcast::perfbench
