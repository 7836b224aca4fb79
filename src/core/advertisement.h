// Service announcement: SSA and NSSA (Sections 2.2 and 3.2).
//
// A rendezvous point advertises a communication group through the overlay.
// Three schemes are implemented:
//
//  * kNssa        — Non-Selective Service Announcement: DVMRP/Scattercast
//                   style flooding.  Each peer forwards the advertisement to
//                   *all* neighbours (except the sender) on first receipt;
//                   the full path travels inside the message for loop
//                   suppression, as Scattercast does.
//  * kSsaRandom   — the basic framework's SSA: forward to a random
//                   pre-specified fraction of neighbours.
//  * kSsaUtility  — GroupCast's SSA: the forwarding subset is drawn with
//                   probability proportional to the neighbours' utility
//                   values (Section 3.2), so high-utility links form the
//                   eventual spanning tree.
//
// The announcement runs event-driven on the simulator: every transmission
// is delivered after the true unicast latency of the link, so arrival
// times and the resulting reverse paths reflect the physical network.
#pragma once

#include <vector>

#include "core/message.h"
#include "core/utility.h"
#include "overlay/graph.h"
#include "overlay/population.h"
#include "sim/simulator.h"

namespace groupcast::core {

enum class AnnouncementScheme { kNssa, kSsaRandom, kSsaUtility };

const char* to_string(AnnouncementScheme scheme);

struct AdvertisementOptions {
  AnnouncementScheme scheme = AnnouncementScheme::kSsaUtility;
  /// Fraction of neighbours an SSA forwarder selects (ceil, at least 1).
  double forward_fraction = 0.35;
  /// Initial TTL of the advertisement.
  std::size_t ttl = 8;
  /// Sample size for each forwarder's resource-level estimate.
  std::size_t resource_sample = 32;

  /// Ablation hook: when >= 0, forwarders use this fixed resource level
  /// instead of sampling (see BootstrapOptions::pinned_resource_level).
  double pinned_resource_level = -1.0;
};

/// Outcome of one announcement: who received it, from whom, and when.
struct AdvertisementState {
  overlay::PeerId rendezvous = overlay::kNoPeer;
  AnnouncementScheme scheme = AnnouncementScheme::kSsaUtility;
  /// parent[p]: neighbour the first advertisement copy arrived from;
  /// kNoPeer if p never received it.  parent[rendezvous] == rendezvous.
  std::vector<overlay::PeerId> parent;
  /// arrival[p]: simulated arrival time of the first copy (valid only if
  /// parent[p] != kNoPeer).
  std::vector<sim::SimTime> arrival;
  /// Advertisement transmissions (every copy sent, duplicates included).
  std::size_t messages = 0;

  bool received(overlay::PeerId p) const {
    return parent.at(p) != overlay::kNoPeer;
  }
  /// Fraction of overlay peers the advertisement reached (Figure 12's
  /// "receiving rate").  `population` = total peer count.
  double receiving_rate() const;
};

class AdvertisementEngine {
 public:
  AdvertisementEngine(sim::Simulator& simulator,
                      const overlay::PeerPopulation& population,
                      const overlay::OverlayGraph& graph,
                      AdvertisementOptions options, util::Rng& rng);

  /// Runs one full announcement from `rendezvous` to quiescence.
  /// Advertisement message counts are also added to `stats` if non-null.
  AdvertisementState announce(overlay::PeerId rendezvous,
                              MessageStats* stats = nullptr);

  const AdvertisementOptions& options() const { return options_; }

 private:
  /// Picks the forwarding subset for `from` out of its neighbours
  /// (excluding `exclude`), per the configured scheme.  Nbr(from) and
  /// (for kSsaUtility) its Eq. 1-5 Candidate rows are memoized per
  /// forwarder, revalidated against the graph's neighbour generation:
  /// the cache stores the computed rows, draws no RNG while filling, and
  /// any neighbour add/remove invalidates it — see docs/PERFORMANCE.md.
  std::vector<overlay::PeerId> select_targets_cached(overlay::PeerId from,
                                                     overlay::PeerId exclude);

  /// Per-forwarder memo of select_targets_cached.  `candidates[i]` is the
  /// capacity/distance row of `neighbors[i]`; rows are filled lazily on
  /// the first kSsaUtility selection (kUtilityCacheMisses) and reused
  /// until the generation moves (kUtilityCacheHits).
  struct NeighborCacheEntry {
    bool valid = false;
    bool candidates_valid = false;
    std::uint64_t generation = 0;
    std::vector<overlay::PeerId> neighbors;
    std::vector<Candidate> candidates;
  };

  sim::Simulator* simulator_;
  const overlay::PeerPopulation* population_;
  const overlay::OverlayGraph* graph_;
  AdvertisementOptions options_;
  util::Rng rng_;
  /// Cached resource-level estimate per peer (lazily sampled).
  std::vector<double> resource_level_;
  std::vector<char> resource_level_known_;
  std::vector<NeighborCacheEntry> neighbor_cache_;
};

}  // namespace groupcast::core
