// Deterministic rendezvous replica sets.
//
// Section 6 lists failure resilience through dynamic replication [35] as a
// planned GroupCast extension.  Every node derives the same replica set of
// a group's rendezvous point locally; the live runtime uses it as the last
// recovery-ladder rung and as the member set of leased leadership
// (core/node.h, docs/ROBUSTNESS.md).  The tree-level half — a pre-arranged
// backup parent per tree node — lives in the runtime as rung 0 of the
// recovery ladder.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "overlay/peer.h"

namespace groupcast::core {

/// Optional liveness predicate for rendezvous_replicas: true while the
/// peer is still reachable.  Callers that pass one must apply the *same*
/// view everywhere they need agreement — the replication member set, for
/// instance, is always derived unfiltered so it never shifts under churn.
using LivenessFilter = std::function<bool(overlay::PeerId)>;

/// Deterministic rendezvous replica set for a group: `count` distinct
/// peers derived by hashing (group, index), never including `primary`.
/// Any node can compute the same set locally, so a subscriber whose joins
/// to a crashed rendezvous point keep timing out has agreed-upon fallback
/// attach targets without any coordination (the replicas hold the group
/// advertisement with high probability and accept joins like any other
/// advert holder).  `count` must leave room for the primary
/// (count < population).  With a liveness filter, departed peers are
/// skipped along the same probe sequence; the result may then be shorter
/// than `count` when too few live peers remain.
std::vector<overlay::PeerId> rendezvous_replicas(
    std::uint32_t group, overlay::PeerId primary, std::size_t population,
    std::size_t count, const LivenessFilter& alive = nullptr);

}  // namespace groupcast::core
