// Tests for the deterministic rendezvous replica sets (the Section 6
// reliability extension).
#include <gtest/gtest.h>

#include "core/replication.h"
#include "util/require.h"

namespace groupcast::core {
namespace {

using overlay::PeerId;

// ---------------------------------------------------- replica-set hashing

TEST(Replication, ReplicaSetIsDeterministicAndDistinct) {
  for (const std::uint32_t group : {1u, 7u, 999u}) {
    for (const std::size_t population :
         {std::size_t{16}, std::size_t{300}, std::size_t{4096}}) {
      const PeerId primary = group % population;
      const auto a = rendezvous_replicas(group, primary, population, 3);
      const auto b = rendezvous_replicas(group, primary, population, 3);
      EXPECT_EQ(a, b);  // same inputs, same set — on every node
      ASSERT_EQ(a.size(), 3u);
      for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_NE(a[i], primary);
        EXPECT_LT(a[i], population);
        for (std::size_t j = i + 1; j < a.size(); ++j) {
          EXPECT_NE(a[i], a[j]);
        }
      }
    }
  }
}

TEST(Replication, ReplicaSetVariesByGroup) {
  // Different groups must not pile their replicas onto the same peers.
  const auto a = rendezvous_replicas(1, 0, 1000, 3);
  const auto b = rendezvous_replicas(2, 0, 1000, 3);
  EXPECT_NE(a, b);
}

TEST(Replication, ReplicaSetSkipsDepartedPeersUnderLivenessFilter) {
  const auto unfiltered = rendezvous_replicas(7, 0, 300, 3);
  const PeerId dead = unfiltered.front();
  const auto filtered = rendezvous_replicas(
      7, 0, 300, 3, [dead](PeerId p) { return p != dead; });
  ASSERT_EQ(filtered.size(), 3u);
  for (const auto p : filtered) EXPECT_NE(p, dead);
  // Survivors keep their agreed order; only the departed peer is
  // replaced (by the next peer along the same probe sequence).
  EXPECT_EQ(filtered[0], unfiltered[1]);
  EXPECT_EQ(filtered[1], unfiltered[2]);
}

TEST(Replication, ReplicaSetValidatesCount) {
  EXPECT_THROW(rendezvous_replicas(7, 0, 4, 4), PreconditionError);
  EXPECT_THROW(rendezvous_replicas(7, 0, 0, 0), PreconditionError);
  EXPECT_TRUE(rendezvous_replicas(7, 0, 1, 0).empty());
}

}  // namespace
}  // namespace groupcast::core
