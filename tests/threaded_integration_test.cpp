// The same protocol objects on real threads: concurrent application
// processes, real interleavings, then the same offline checker.
#include <gtest/gtest.h>

#include <thread>
#include <type_traits>
#include <vector>

#include "causal/threaded_cluster.hpp"
#include "checker/causal_checker.hpp"
#include "util/rng.hpp"

namespace ccpr::causal {
namespace {

void expect_causal(const ThreadedCluster& c) {
  const auto result =
      checker::check_causal_consistency(c.history(), c.replica_map());
  EXPECT_TRUE(result.ok);
  for (const auto& v : result.violations) ADD_FAILURE() << v;
}

TEST(ThreadedClusterTest, BasicPutGet) {
  ThreadedCluster c(Algorithm::kOptTrack, ReplicaMap::even(3, 6, 2));
  c.write(0, 0, "hello");
  c.drain();
  EXPECT_EQ(c.read(1, 0).data, "hello");  // var 0 lives at {0, 1}
  EXPECT_EQ(c.read(2, 0).data, "hello");  // remote fetch
  expect_causal(c);
}

TEST(ThreadedClusterTest, ReadYourOwnWrites) {
  ThreadedCluster c(Algorithm::kOptTrack, ReplicaMap::even(2, 4, 2));
  for (int i = 0; i < 20; ++i) {
    const std::string v = "v" + std::to_string(i);
    c.write(0, 0, v);
    EXPECT_EQ(c.read(0, 0).data, v);
  }
  c.drain();
  expect_causal(c);
}

// gtest names each case after the raw bytes of its parameter, so the struct
// spells out its padding: every byte is initialised and the case names are
// the same on every build and run.
struct ThreadedSweepParam {
  Algorithm alg;
  std::uint8_t pad0[3] = {};
  std::uint32_t n;
  std::uint32_t p;
  std::uint32_t pad1 = 0;
  const char* name;
  std::uint32_t shards = 1;  ///< engine shards per site (ShardGroup when >1)
  std::uint32_t pad2 = 0;
};
static_assert(std::has_unique_object_representations_v<ThreadedSweepParam>,
              "ThreadedSweepParam must have no implicit padding");

class ThreadedSweep : public ::testing::TestWithParam<ThreadedSweepParam> {};

TEST_P(ThreadedSweep, ConcurrentClientsStayCausal) {
  const auto& param = GetParam();
  const std::uint32_t q = 12;
  ThreadedCluster::Options opts;
  opts.max_delay_us = 300;  // widen interleavings
  opts.protocol.engine_shards = param.shards;
  ThreadedCluster c(param.alg, ReplicaMap::even(param.n, q, param.p), opts);

  std::vector<std::thread> clients;
  for (SiteId s = 0; s < param.n; ++s) {
    clients.emplace_back([&c, s, q] {
      util::Rng rng(1000 + s);
      for (int i = 0; i < 60; ++i) {
        const auto x = static_cast<VarId>(rng.below(q));
        if (rng.chance(0.4)) {
          c.write(s, x, "s" + std::to_string(s) + ":" + std::to_string(i));
        } else {
          (void)c.read(s, x);
        }
      }
    });
  }
  for (auto& t : clients) t.join();
  c.drain();
  EXPECT_EQ(c.pending_updates(), 0u);
  expect_causal(c);
}

INSTANTIATE_TEST_SUITE_P(
    Algorithms, ThreadedSweep,
    ::testing::Values(
        ThreadedSweepParam{.alg = Algorithm::kOptTrack, .n = 4, .p = 2,
                           .name = "OptTrack_partial"},
        ThreadedSweepParam{.alg = Algorithm::kOptTrack, .n = 4, .p = 2,
                           .name = "OptTrack_partial_shards4", .shards = 4},
        ThreadedSweepParam{.alg = Algorithm::kOptTrack, .n = 4, .p = 4,
                           .name = "OptTrack_full"},
        ThreadedSweepParam{.alg = Algorithm::kFullTrack, .n = 4, .p = 2,
                           .name = "FullTrack_partial"},
        ThreadedSweepParam{.alg = Algorithm::kOptTrackCRP, .n = 4, .p = 4,
                           .name = "CRP"},
        ThreadedSweepParam{.alg = Algorithm::kOptP, .n = 4, .p = 4,
                           .name = "OptP"},
        ThreadedSweepParam{.alg = Algorithm::kAhamad, .n = 4, .p = 4,
                           .name = "Ahamad"}),
    [](const ::testing::TestParamInfo<ThreadedSweepParam>& param_info) {
      return param_info.param.name;
    });

TEST(ThreadedClusterTest, MetricsAccumulateAcrossSites) {
  ThreadedCluster c(Algorithm::kOptTrackCRP, ReplicaMap::full(3, 3));
  c.write(0, 0, "a");
  c.write(1, 1, "b");
  c.drain();
  const auto m = c.metrics();
  EXPECT_EQ(m.writes, 2u);
  EXPECT_EQ(m.update_msgs, 4u);  // 2 writes x (n-1) destinations
}

}  // namespace
}  // namespace ccpr::causal
