#include "core/replication.h"

#include <algorithm>

#include "util/require.h"
#include "util/rng.h"

namespace groupcast::core {

std::vector<overlay::PeerId> rendezvous_replicas(std::uint32_t group,
                                                 overlay::PeerId primary,
                                                 std::size_t population,
                                                 std::size_t count,
                                                 const LivenessFilter& alive) {
  GC_REQUIRE(population > 0);
  GC_REQUIRE(count < population);
  std::vector<overlay::PeerId> replicas;
  if (population <= 1 || count == 0) return replicas;
  // splitmix64 over (group, probe index) — stateless, so every node
  // derives the identical sequence.  Dead candidates are skipped in probe
  // order, so two nodes with the same liveness view agree on the result.
  // The probe budget bounds the walk when fewer than `count` live peers
  // exist (every peer is expected within ~population·ln(population)
  // probes; 16x that margin makes a short result a certainty statement,
  // not a sampling accident).
  std::uint64_t state =
      0x9E3779B97F4A7C15ULL ^ (static_cast<std::uint64_t>(group) << 1);
  std::size_t probes_left = 16 * population + 64;
  while (replicas.size() < count && probes_left-- > 0) {
    const auto candidate = static_cast<overlay::PeerId>(
        util::splitmix64(state) % population);
    if (candidate == primary) continue;
    if (alive && !alive(candidate)) continue;
    if (std::find(replicas.begin(), replicas.end(), candidate) !=
        replicas.end()) {
      continue;
    }
    replicas.push_back(candidate);
  }
  return replicas;
}

}  // namespace groupcast::core
