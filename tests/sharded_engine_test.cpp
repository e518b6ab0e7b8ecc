// In-process ShardedEngine tests: two sites of four engine shards each,
// every shard a real ProtocolEngine apply thread, wired by a direct
// hand-off the test controls — no sockets, no forked servers. The test
// decides which envelope reaches a site when, so it can deliver an update
// before its cross-shard dependency and watch the gates hold it back.
#include "server/sharded_engine.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "causal/factory.hpp"
#include "causal/replica_map.hpp"
#include "causal/shard_map.hpp"

namespace ccpr::server {
namespace {

using namespace std::chrono_literals;

constexpr std::uint32_t kShards = 4;

/// Everything the sites hand to the transport, held until the test
/// delivers it.
class Wire {
 public:
  void push(net::Message m) {
    std::lock_guard lk(mu_);
    msgs_.push_back(std::move(m));
  }
  std::vector<net::Message> take() {
    std::lock_guard lk(mu_);
    return std::move(msgs_);
  }

 private:
  std::mutex mu_;
  std::vector<net::Message> msgs_;
};

/// One sharded site: shard k runs an Opt-Track instance over k's slice of
/// the WriteId space, sending through ShardedEngine::wrap_and_send.
struct Site {
  Site(causal::SiteId self, const causal::ReplicaMap& rmap, Wire* wire)
      : engine(kShards, self, rmap.sites(), ProtocolEngine::Options{}) {
    engine.set_transport_send(
        [wire](net::Message m) { wire->push(std::move(m)); });
    for (std::uint32_t k = 0; k < kShards; ++k) {
      causal::Services svc;
      svc.send = [this, k](net::Message m) {
        engine.wrap_and_send(k, std::move(m));
      };
      svc.now = [] { return sim::SimTime{0}; };
      svc.metrics = engine.shard_metrics(k);
      causal::ProtocolOptions popts;
      popts.write_seq_offset = k;
      popts.write_seq_stride = kShards;
      engine.shard(k).adopt_protocol(
          causal::make_protocol(causal::Algorithm::kOptTrack, self, rmap,
                                std::move(svc), popts),
          engine.shard_metrics(k));
    }
    engine.install_hooks();
    engine.start_all();
  }

  ProtocolEngine& shard_of(causal::VarId x) {
    return engine.shard(engine.shard_map().shard_of(x));
  }
  std::string read(causal::VarId x) {
    const auto v = shard_of(x).read(x);
    EXPECT_TRUE(v.has_value());
    return v ? v->data : std::string{};
  }

  ShardedEngine engine;
};

bool eventually(const std::function<bool()>& pred) {
  const auto deadline = std::chrono::steady_clock::now() + 10s;
  while (!pred()) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::sleep_for(1ms);
  }
  return true;
}

class ShardedEngineTest : public ::testing::Test {
 protected:
  ShardedEngineTest()
      : rmap_(causal::ReplicaMap::full(2, 8)),
        site0_(0, rmap_, &wire_),
        site1_(1, rmap_, &wire_) {
    const causal::ShardMap& map = site0_.engine.shard_map();
    while (map.shard_of(y_) == map.shard_of(x_)) ++y_;
  }

  /// Site 0 writes x, then y, on different shards; returns the two update
  /// envelopes bound for site 1, in that order. y's envelope carries x's
  /// shard token, published before x's write completed.
  std::pair<net::Message, net::Message> write_x_then_y() {
    EXPECT_TRUE(site0_.shard_of(x_).write(x_, "first", true));
    EXPECT_TRUE(site0_.shard_of(y_).write(y_, "second", true));
    std::vector<net::Message> sent = wire_.take();
    EXPECT_EQ(sent.size(), 2u);
    if (sent.size() != 2) return {};
    return {sent[0], sent[1]};
  }

  causal::ReplicaMap rmap_;
  Wire wire_;
  Site site0_;
  Site site1_;
  causal::VarId x_ = 0;
  causal::VarId y_ = 1;
};

TEST_F(ShardedEngineTest, EnvelopeParksUntilItsCrossShardDependencyApplies) {
  const auto [x_env, y_env] = write_x_then_y();
  ASSERT_EQ(y_env.kind, net::MsgKind::kShardEnvelope);

  site1_.engine.deliver(y_env);
  EXPECT_EQ(site1_.engine.parked_envelopes(), 1u);
  // The read runs on x's shard after the covered-waiter y's gate posted
  // there, so that waiter has been checked (and found unmet) by now.
  EXPECT_EQ(site1_.read(x_), "");
  EXPECT_EQ(site1_.read(y_), "");
  EXPECT_EQ(site1_.engine.parked_envelopes(), 1u);

  site1_.engine.deliver(x_env);
  ASSERT_TRUE(eventually([&] { return site1_.read(y_) == "second"; }));
  EXPECT_EQ(site1_.read(x_), "first");
  EXPECT_EQ(site1_.engine.parked_envelopes(), 0u);
  EXPECT_EQ(site1_.engine.malformed_envelopes(), 0u);
}

TEST_F(ShardedEngineTest, BacklogIsGatedOnArrivalAndReleasedInOrder) {
  // Site 0 writes x, then y K times: every y envelope depends on x's shard.
  constexpr std::size_t kBacklog = 5;
  ASSERT_TRUE(site0_.shard_of(x_).write(x_, "first", true));
  for (std::size_t i = 1; i <= kBacklog; ++i) {
    ASSERT_TRUE(site0_.shard_of(y_).write(y_, "y" + std::to_string(i), true));
  }
  std::vector<net::Message> sent = wire_.take();
  ASSERT_EQ(sent.size(), kBacklog + 1);

  for (std::size_t i = 1; i <= kBacklog; ++i) site1_.engine.deliver(sent[i]);
  EXPECT_EQ(site1_.engine.parked_envelopes(), kBacklog);
  // Every parked y has its gate on x's shard, not only the channel's head.
  ASSERT_TRUE(eventually([&] {
    return site1_.shard_of(x_).queue_stats().covered_waiters == kBacklog;
  })) << "covered_waiters "
      << site1_.shard_of(x_).queue_stats().covered_waiters;
  EXPECT_EQ(site1_.read(y_), "");

  site1_.engine.deliver(sent[0]);
  ASSERT_TRUE(eventually([&] {
    return site1_.read(y_) == "y" + std::to_string(kBacklog);
  }));
  EXPECT_EQ(site1_.read(x_), "first");
  EXPECT_EQ(site1_.engine.parked_envelopes(), 0u);
  EXPECT_EQ(site1_.shard_of(x_).queue_stats().covered_waiters, 0u);
}

TEST_F(ShardedEngineTest, OpenEnvelopeDoesNotOvertakeParkedHead) {
  const auto [x_env, y_env] = write_x_then_y();
  ASSERT_TRUE(site0_.shard_of(y_).write(y_, "third", true));
  std::vector<net::Message> sent = wire_.take();
  ASSERT_EQ(sent.size(), 1u);
  // The second y envelope with its tokens stripped: open on arrival, but
  // queued behind the first y, which still waits for x.
  auto bare = causal::unwrap_shard_envelope(sent[0]);
  ASSERT_TRUE(bare.has_value());
  bare->tokens.clear();

  site1_.engine.deliver(y_env);
  site1_.engine.deliver(
      causal::wrap_shard_envelope(bare->shard, bare->tokens, bare->inner));
  EXPECT_EQ(site1_.engine.parked_envelopes(), 2u);
  EXPECT_EQ(site1_.read(y_), "");
  // Released early, the bare envelope would wait in y's shard's protocol.
  const auto st = site1_.shard_of(y_).status();
  ASSERT_TRUE(st.has_value());
  EXPECT_EQ(st->pending_updates, 0u);

  site1_.engine.deliver(x_env);
  ASSERT_TRUE(eventually([&] { return site1_.read(y_) == "third"; }));
  EXPECT_EQ(site1_.engine.parked_envelopes(), 0u);
  EXPECT_EQ(site1_.engine.malformed_envelopes(), 0u);
}

TEST_F(ShardedEngineTest, StaleShardTokenIsRejectedNotDropped) {
  const auto [x_env, y_env] = write_x_then_y();
  // y's envelope with a token for a shard site 1 does not have put in
  // front — what a peer with a different shard count sends.
  auto stale = causal::unwrap_shard_envelope(y_env);
  ASSERT_TRUE(stale.has_value());
  stale->tokens.insert(stale->tokens.begin(), causal::ShardToken{99, {}});
  site1_.engine.deliver(
      causal::wrap_shard_envelope(stale->shard, stale->tokens, stale->inner));
  EXPECT_EQ(site1_.engine.malformed_envelopes(), 1u);
  EXPECT_EQ(site1_.engine.parked_envelopes(), 0u);

  site1_.engine.deliver(x_env);
  ASSERT_TRUE(eventually([&] { return site1_.read(x_) == "first"; }));
  EXPECT_EQ(site1_.read(y_), "");
}

}  // namespace
}  // namespace ccpr::server
