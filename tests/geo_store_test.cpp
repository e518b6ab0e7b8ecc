#include "store/geo_store.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <thread>

#include "checker/causal_checker.hpp"
#include "store/placement.hpp"

namespace ccpr::store {
namespace {

using causal::Algorithm;
using causal::ReplicaMap;

KeySpace three_keys() {
  return KeySpace({"alice:wall", "bob:wall", "carol:wall"});
}

// GeoStore behavior must be engine-independent: every test below runs once
// per value-store engine, selected through ProtocolOptions.
class GeoStoreTest : public ::testing::TestWithParam<EngineKind> {
 protected:
  GeoStore::Options with_engine(GeoStore::Options opts = {}) const {
    opts.protocol.store_engine.kind = GetParam();
    opts.protocol.store_engine.shards = 2;  // tiny tables, more edge cases
    return opts;
  }
};

INSTANTIATE_TEST_SUITE_P(Engines, GeoStoreTest,
                         ::testing::Values(EngineKind::kMap,
                                           EngineKind::kCompact),
                         [](const auto& info) {
                           return std::string(engine_kind_token(info.param));
                         });

TEST(KeySpaceTest, InternsRegisteredKeys) {
  const KeySpace ks({"a", "b", "c"});
  EXPECT_EQ(ks.size(), 3u);
  EXPECT_EQ(ks.intern("a"), 0u);
  EXPECT_EQ(ks.intern("c"), 2u);
  EXPECT_EQ(ks.name(1), "b");
  EXPECT_TRUE(ks.contains("b"));
  EXPECT_FALSE(ks.contains("zzz"));
}

TEST(KeySpaceTest, DuplicateKeyRejected) {
  EXPECT_DEATH({ KeySpace ks({"a", "a"}); }, "Precondition");
}

TEST(HashPlacementTest, ProducesPDistinctReplicas) {
  const auto rmap = hash_placement(6, 30, 3, 42);
  EXPECT_EQ(rmap.vars(), 30u);
  for (causal::VarId x = 0; x < 30; ++x) {
    EXPECT_EQ(rmap.replicas(x).size(), 3u);  // distinct by construction
  }
  EXPECT_DOUBLE_EQ(rmap.replication_factor(), 3.0);
}

TEST(HashPlacementTest, DeterministicPerSeedAndSpreads) {
  const auto a = hash_placement(5, 40, 2, 7);
  const auto b = hash_placement(5, 40, 2, 7);
  std::vector<std::size_t> load(5, 0);
  for (causal::VarId x = 0; x < 40; ++x) {
    const auto ra = a.replicas(x);
    const auto rb = b.replicas(x);
    ASSERT_EQ(ra.size(), rb.size());
    for (std::size_t i = 0; i < ra.size(); ++i) EXPECT_EQ(ra[i], rb[i]);
    for (const auto s : ra) ++load[s];
  }
  for (const auto l : load) EXPECT_GT(l, 4u);  // no starved site
}

TEST(RegionPlacementTest, StaysInHomeRegionWhenPossible) {
  const std::vector<std::uint32_t> region_of_site{0, 0, 0, 1, 1, 1};
  const std::vector<std::uint32_t> home{0, 1, 0, 1};
  const auto rmap = region_placement(region_of_site, home, 2);
  for (causal::VarId x = 0; x < 4; ++x) {
    for (const auto s : rmap.replicas(x)) {
      EXPECT_EQ(region_of_site[s], home[x]);
    }
  }
}

TEST(RegionPlacementTest, SpillsWhenRegionTooSmall) {
  const std::vector<std::uint32_t> region_of_site{0, 1, 1};
  const std::vector<std::uint32_t> home{0};
  const auto rmap = region_placement(region_of_site, home, 2);
  const auto reps = rmap.replicas(0);
  ASSERT_EQ(reps.size(), 2u);
  EXPECT_TRUE(std::find(reps.begin(), reps.end(), 0u) != reps.end());
}

TEST(RegionPlacementTest, ClampsWhenPExceedsTotalSites) {
  // p beyond the cluster degrades to full replication (every site once),
  // matching the ring policy's clamp instead of aborting.
  const std::vector<std::uint32_t> region_of_site{0, 1, 1};
  const std::vector<std::uint32_t> home{0, 1};
  const auto rmap = region_placement(region_of_site, home, 7);
  for (causal::VarId x = 0; x < 2; ++x) {
    EXPECT_EQ(rmap.replicas(x).size(), 3u);
  }
  EXPECT_TRUE(rmap.fully_replicated());
}

TEST(RegionPlacementTest, SkipsZeroSiteRegions) {
  // Region 1 exists (home of var 1) but holds no sites; its vars spill to
  // the next regions and every var still gets exactly p replicas.
  const std::vector<std::uint32_t> region_of_site{0, 0, 2, 2};
  const std::vector<std::uint32_t> home{0, 1, 2};
  const auto rmap = region_placement(region_of_site, home, 2);
  for (causal::VarId x = 0; x < 3; ++x) {
    EXPECT_EQ(rmap.replicas(x).size(), 2u);
  }
  // Var 1's walk starts at empty region 1 and lands in region 2.
  for (const auto s : rmap.replicas(1)) {
    EXPECT_EQ(region_of_site[s], 2u);
  }
}

TEST(RegionPlacementTest, SingleRegionIsRoundRobin) {
  const std::vector<std::uint32_t> region_of_site{0, 0, 0, 0};
  const std::vector<std::uint32_t> home{0, 0, 0, 0, 0};
  const auto rmap = region_placement(region_of_site, home, 2);
  for (causal::VarId x = 0; x < 5; ++x) {
    const auto reps = rmap.replicas(x);
    ASSERT_EQ(reps.size(), 2u);
    // Round-robin by var id: {x mod 4, x+1 mod 4} within the one region.
    EXPECT_TRUE(rmap.replicated_at(x, x % 4));
    EXPECT_TRUE(rmap.replicated_at(x, (x + 1) % 4));
  }
}

TEST_P(GeoStoreTest, PutThenGetSameSession) {
  GeoStore store(three_keys(), ReplicaMap::even(3, 3, 2), with_engine());
  auto s = store.session(0);
  s.put("alice:wall", "first post!");
  EXPECT_EQ(s.get("alice:wall"), "first post!");
  store.flush();
}

TEST_P(GeoStoreTest, CrossSessionVisibilityAfterFlush) {
  GeoStore store(three_keys(), ReplicaMap::even(3, 3, 2), with_engine());
  auto a = store.session(0);
  auto b = store.session(2);
  a.put("alice:wall", "hello from 0");
  store.flush();
  EXPECT_EQ(b.get("alice:wall"), "hello from 0");
}

TEST_P(GeoStoreTest, UnwrittenKeyReadsEmpty) {
  GeoStore store(three_keys(), ReplicaMap::even(3, 3, 2), with_engine());
  EXPECT_EQ(store.session(1).get("bob:wall"), "");
}

TEST_P(GeoStoreTest, CausalAcrossKeysAndSessions) {
  // The classic comment-after-post pattern, checked end to end.
  GeoStore::Options opts;
  opts.algorithm = Algorithm::kOptTrack;
  opts.max_delay_us = 200;
  GeoStore store(three_keys(), ReplicaMap::even(3, 3, 2), with_engine(opts));
  auto alice = store.session(0);
  auto bob = store.session(1);
  alice.put("alice:wall", "photo");
  // Bob reads the photo, then comments on his wall.
  while (bob.get("alice:wall") != "photo") {
  }
  bob.put("bob:wall", "nice photo!");
  store.flush();
  const auto result = checker::check_causal_consistency(
      store.history(), store.replica_map());
  EXPECT_TRUE(result.ok);
  for (const auto& v : result.violations) ADD_FAILURE() << v;
}

TEST_P(GeoStoreTest, ConvergenceAuditAfterQuiescence) {
  GeoStore store(three_keys(), ReplicaMap::even(3, 3, 3), with_engine());
  store.session(0).put("alice:wall", "a");
  store.session(1).put("bob:wall", "b");
  store.flush();
  const auto report = store.audit_convergence();
  EXPECT_EQ(report.vars_checked, 3u);
  EXPECT_TRUE(report.converged());
}

TEST_P(GeoStoreTest, ConcurrentSessionsRemainCausal) {
  GeoStore::Options opts;
  opts.algorithm = Algorithm::kOptTrack;
  opts.max_delay_us = 300;
  std::vector<std::string> keys;
  for (int i = 0; i < 8; ++i) keys.push_back("k" + std::to_string(i));
  GeoStore store(KeySpace(keys), ReplicaMap::even(4, 8, 2), with_engine(opts));
  std::vector<std::thread> clients;
  for (causal::SiteId s = 0; s < 4; ++s) {
    clients.emplace_back([&store, s] {
      auto session = store.session(s);
      for (int i = 0; i < 40; ++i) {
        const std::string key =
            "k" + std::to_string((s + static_cast<causal::SiteId>(i)) % 8);
        if (i % 3 == 0) {
          session.put(key, "v" + std::to_string(i));
        } else {
          (void)session.get(key);
        }
      }
    });
  }
  for (auto& t : clients) t.join();
  store.flush();
  const auto result = checker::check_causal_consistency(
      store.history(), store.replica_map());
  EXPECT_TRUE(result.ok);
  for (const auto& v : result.violations) ADD_FAILURE() << v;
}

TEST_P(GeoStoreTest, MigratedSessionReadsItsWritesWithoutFlush) {
  // The writes are still in flight to site 1 when the session moves there,
  // so only migrate()'s covered wait makes the read return the last one.
  // With 4 engine shards the coverage token spans every shard.
  for (const std::uint32_t shards : {1u, 4u}) {
    SCOPED_TRACE("engine_shards=" + std::to_string(shards));
    GeoStore::Options opts;
    opts.max_delay_us = 2000;
    opts.protocol.engine_shards = shards;
    GeoStore store(three_keys(), ReplicaMap::even(3, 3, 2), with_engine(opts));
    ASSERT_TRUE(store.replica_map().replicated_at(0, 0));  // alice:wall
    ASSERT_TRUE(store.replica_map().replicated_at(0, 1));
    auto session = store.session(0);
    for (int i = 1; i <= 20; ++i) {
      session.put("alice:wall", "post " + std::to_string(i));
    }
    session.migrate(1);
    EXPECT_EQ(session.site(), 1u);
    EXPECT_EQ(session.get("alice:wall"), "post 20");
    store.flush();
    const auto result = checker::check_causal_consistency(
        store.history(), store.replica_map());
    EXPECT_TRUE(result.ok);
    for (const auto& v : result.violations) ADD_FAILURE() << v;
  }
}

}  // namespace
}  // namespace ccpr::store
