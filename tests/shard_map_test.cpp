// ShardMap + shard-envelope/session-token codec unit tests.
//
// The map is a cluster-wide wire contract: every site and every runtime
// must place a VarId on the same shard forever, so the mixer's output is
// pinned to golden values here — if this test fails, the change broke
// cross-version (and cross-site) compatibility, not just a hash choice.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <vector>

#include "causal/factory.hpp"
#include "causal/shard_group.hpp"
#include "causal/shard_map.hpp"
#include "metrics/metrics.hpp"
#include "net/message.hpp"
#include "test_support.hpp"
#include "workload/workload.hpp"

namespace ccpr {
namespace {

TEST(ShardMapTest, MixMatchesGoldenSplitmix64Values) {
  EXPECT_EQ(causal::ShardMap::mix(0), 0xe220a8397b1dcdafull);
  EXPECT_EQ(causal::ShardMap::mix(1), 0x910a2dec89025cc1ull);
  EXPECT_EQ(causal::ShardMap::mix(2), 0x975835de1c9756ceull);
  EXPECT_EQ(causal::ShardMap::mix(7), 0x63cbe1e459320dd7ull);
  EXPECT_EQ(causal::ShardMap::mix(1000), 0x3c1eba8b4dccc148ull);
  EXPECT_EQ(causal::ShardMap::mix(123456789), 0x223c74d93deb7679ull);
}

TEST(ShardMapTest, GoldenShardAssignments) {
  const causal::ShardMap m4(4);
  EXPECT_EQ(m4.shard_of(0), 3u);
  EXPECT_EQ(m4.shard_of(1), 1u);
  EXPECT_EQ(m4.shard_of(2), 2u);
  EXPECT_EQ(m4.shard_of(1000), 0u);
  const causal::ShardMap m8(8);
  EXPECT_EQ(m8.shard_of(0), 7u);
  EXPECT_EQ(m8.shard_of(2), 6u);
  EXPECT_EQ(m8.shard_of(1000), 0u);
}

TEST(ShardMapTest, SingleShardIsIdentityZero) {
  const causal::ShardMap m(1);
  for (causal::VarId x = 0; x < 1000; ++x) EXPECT_EQ(m.shard_of(x), 0u);
  // Shard count 0 is coerced to 1 rather than dividing by zero.
  const causal::ShardMap z(0);
  EXPECT_EQ(z.shards(), 1u);
  EXPECT_EQ(z.shard_of(42), 0u);
}

TEST(ShardMapTest, AssignmentsAreStableAndInRange) {
  const causal::ShardMap m(5);
  for (causal::VarId x = 0; x < 2000; ++x) {
    const auto k = m.shard_of(x);
    EXPECT_LT(k, 5u);
    EXPECT_EQ(k, m.shard_of(x)) << "shard_of must be a pure function";
  }
}

TEST(ShardMapTest, DistributionIsRoughlyUniform) {
  // 10k sequential VarIds over 4 shards: every shard should land within
  // 20% of the fair share. (The mixer is splitmix64's finalizer; a gross
  // imbalance means the hash was changed or broken.)
  const causal::ShardMap m(4);
  std::vector<std::uint32_t> counts(4, 0);
  const std::uint32_t n = 10000;
  for (causal::VarId x = 0; x < n; ++x) counts[m.shard_of(x)]++;
  for (std::uint32_t k = 0; k < 4; ++k) {
    EXPECT_GT(counts[k], n / 4 * 8 / 10) << "shard " << k;
    EXPECT_LT(counts[k], n / 4 * 12 / 10) << "shard " << k;
  }
}

net::Message make_inner() {
  net::Message inner;
  inner.kind = net::MsgKind::kUpdate;
  inner.src = 1;
  inner.dst = 2;
  inner.chan_epoch = 7;
  inner.chan_seq = 42;
  inner.payload_bytes = 11;
  inner.body = {0xde, 0xad, 0xbe, 0xef};
  return inner;
}

TEST(ShardEnvelopeTest, RoundTripPreservesEverything) {
  std::vector<causal::ShardToken> tokens;
  tokens.push_back({0, {1, 2, 3}});
  tokens.push_back({2, {9}});
  const auto inner = make_inner();
  const auto env = causal::wrap_shard_envelope(1, tokens, inner);

  EXPECT_EQ(env.kind, net::MsgKind::kShardEnvelope);
  EXPECT_EQ(env.src, inner.src);
  EXPECT_EQ(env.dst, inner.dst);
  EXPECT_EQ(env.chan_epoch, inner.chan_epoch);
  EXPECT_EQ(env.chan_seq, inner.chan_seq);
  EXPECT_EQ(env.payload_bytes, inner.payload_bytes);
  EXPECT_EQ(causal::shard_envelope_inner_kind(env.body),
            static_cast<std::uint8_t>(net::MsgKind::kUpdate));

  const auto dec = causal::unwrap_shard_envelope(env);
  ASSERT_TRUE(dec.has_value());
  EXPECT_EQ(dec->shard, 1u);
  ASSERT_EQ(dec->tokens.size(), 2u);
  EXPECT_EQ(dec->tokens[0].shard, 0u);
  EXPECT_EQ(dec->tokens[0].token, (std::vector<std::uint8_t>{1, 2, 3}));
  EXPECT_EQ(dec->tokens[1].shard, 2u);
  EXPECT_EQ(dec->tokens[1].token, (std::vector<std::uint8_t>{9}));
  EXPECT_EQ(dec->inner.kind, net::MsgKind::kUpdate);
  EXPECT_EQ(dec->inner.src, inner.src);
  EXPECT_EQ(dec->inner.dst, inner.dst);
  EXPECT_EQ(dec->inner.chan_epoch, inner.chan_epoch);
  EXPECT_EQ(dec->inner.chan_seq, inner.chan_seq);
  EXPECT_EQ(dec->inner.payload_bytes, inner.payload_bytes);
  EXPECT_EQ(dec->inner.body, inner.body);
}

TEST(ShardEnvelopeTest, ZeroTokensAndEmptyBodyRoundTrip) {
  net::Message inner;
  inner.kind = net::MsgKind::kFetchReq;
  inner.src = 0;
  inner.dst = 1;
  const auto env = causal::wrap_shard_envelope(3, {}, inner);
  const auto dec = causal::unwrap_shard_envelope(env);
  ASSERT_TRUE(dec.has_value());
  EXPECT_EQ(dec->shard, 3u);
  EXPECT_TRUE(dec->tokens.empty());
  EXPECT_EQ(dec->inner.kind, net::MsgKind::kFetchReq);
  EXPECT_TRUE(dec->inner.body.empty());
}

TEST(ShardEnvelopeTest, MalformedBodiesAreRejected) {
  const auto env = causal::wrap_shard_envelope(1, {{0, {1, 2}}}, make_inner());

  // Wrong outer kind.
  net::Message notenv = env;
  notenv.kind = net::MsgKind::kUpdate;
  EXPECT_FALSE(causal::unwrap_shard_envelope(notenv).has_value());

  // Empty body.
  net::Message empty = env;
  empty.body.clear();
  EXPECT_FALSE(causal::unwrap_shard_envelope(empty).has_value());

  // Every strict prefix of the header+tokens region must fail cleanly
  // (truncated varints, truncated token bytes). The inner body itself may
  // legitimately be empty, so stop before the full frame.
  for (std::size_t len = 0; len + 4 < env.body.size(); ++len) {
    net::Message cut = env;
    cut.body.resize(len);
    EXPECT_FALSE(causal::unwrap_shard_envelope(cut).has_value())
        << "prefix length " << len;
  }
}

TEST(ShardTokenCodecTest, SingleShardIsPassthrough) {
  const std::vector<std::uint8_t> raw = {5, 6, 7, 8};
  EXPECT_EQ(causal::combine_shard_tokens({raw}), raw);
  const auto split = causal::split_shard_tokens(raw, 1);
  ASSERT_TRUE(split.has_value());
  ASSERT_EQ(split->size(), 1u);
  EXPECT_EQ((*split)[0], raw);
}

TEST(ShardTokenCodecTest, MultiShardRoundTrip) {
  const std::vector<std::vector<std::uint8_t>> per_shard = {
      {1, 2, 3}, {}, {42}};
  const auto combined = causal::combine_shard_tokens(per_shard);
  const auto split = causal::split_shard_tokens(combined, 3);
  ASSERT_TRUE(split.has_value());
  EXPECT_EQ(*split, per_shard);
}

TEST(ShardTokenCodecTest, CountMismatchAndGarbageAreRejected) {
  const auto combined =
      causal::combine_shard_tokens({{1, 2}, {3, 4}, {5, 6}, {7, 8}});
  EXPECT_FALSE(causal::split_shard_tokens(combined, 2).has_value());
  EXPECT_FALSE(causal::split_shard_tokens(combined, 8).has_value());
  // Truncated combined frames must fail, not crash or mis-split.
  for (std::size_t len = 0; len < combined.size(); ++len) {
    std::vector<std::uint8_t> cut(combined.begin(),
                                  combined.begin() + static_cast<long>(len));
    EXPECT_FALSE(causal::split_shard_tokens(cut, 4).has_value())
        << "prefix length " << len;
  }
  // Trailing garbage after the declared tokens is also malformed.
  auto padded = combined;
  padded.push_back(0xff);
  EXPECT_FALSE(causal::split_shard_tokens(padded, 4).has_value());
}

// ---- ShardChannels: the envelope state machine both runtimes drive ----

/// An update envelope from `src` for shard `shard`, tagged with `seq` so a
/// test can tell released envelopes apart.
net::Message envelope_from(causal::SiteId src, std::uint32_t shard,
                           std::uint64_t seq,
                           const std::vector<causal::ShardToken>& tokens) {
  net::Message inner = make_inner();
  inner.src = src;
  inner.chan_seq = seq;
  return causal::wrap_shard_envelope(shard, tokens, inner);
}

/// Release every channel head whose dependencies all satisfy `covered`,
/// the way ShardGroup does; returns the released envelopes' seqs.
std::vector<std::uint64_t> drain(
    causal::ShardChannels& ch,
    const std::function<bool(const causal::ShardToken&)>& covered) {
  std::vector<std::uint64_t> out;
  for (const auto& c : ch.channels()) {
    while (ch.depth(c) > 0 && std::all_of(ch.head_deps(c).begin(),
                                          ch.head_deps(c).end(), covered)) {
      out.push_back(ch.pop(c).inner.chan_seq);
    }
  }
  return out;
}

const auto kNothingCovered = [](const causal::ShardToken&) { return false; };
const auto kAllCovered = [](const causal::ShardToken&) { return true; };

TEST(ShardChannelsTest, ReadyEnvelopeWaitsBehindUnmetHead) {
  causal::ShardChannels ch(4);
  ASSERT_TRUE(ch.push(envelope_from(0, 0, 1, {{1, {7}}})));
  ASSERT_TRUE(ch.push(envelope_from(0, 0, 2, {})));
  const causal::ShardChannels::Channel c{0, 0};
  EXPECT_EQ(ch.depth(c), 2u);
  ASSERT_EQ(ch.head_deps(c).size(), 1u);
  EXPECT_EQ(ch.head_deps(c)[0].shard, 1u);

  // Envelope 2 has no dependencies, but it may not overtake the head.
  EXPECT_TRUE(drain(ch, kNothingCovered).empty());
  EXPECT_EQ(ch.parked(), 2u);
  EXPECT_EQ(drain(ch, kAllCovered), (std::vector<std::uint64_t>{1, 2}));
  EXPECT_EQ(ch.parked(), 0u);
  EXPECT_TRUE(ch.channels().empty());
}

TEST(ShardChannelsTest, ChannelsProgressIndependently) {
  causal::ShardChannels ch(4);
  ASSERT_TRUE(ch.push(envelope_from(0, 0, 1, {{1, {7}}})));  // blocked
  ASSERT_TRUE(ch.push(envelope_from(1, 0, 2, {})));  // other source site
  ASSERT_TRUE(ch.push(envelope_from(0, 2, 3, {})));  // other target shard
  // Channels come out sorted by (source site, shard).
  EXPECT_EQ(drain(ch, kNothingCovered), (std::vector<std::uint64_t>{3, 2}));
  EXPECT_EQ(ch.parked(), 1u);
  EXPECT_EQ(ch.channels(),
            (std::vector<causal::ShardChannels::Channel>{{0, 0}}));
}

TEST(ShardChannelsTest, EmptyInboundTokensAreNoDependency) {
  causal::ShardChannels ch(4);
  ASSERT_TRUE(ch.push(envelope_from(0, 1, 1, {{0, {}}, {2, {5}}})));
  const auto& deps = ch.head_deps({0, 1});
  ASSERT_EQ(deps.size(), 1u);
  EXPECT_EQ(deps[0].shard, 2u);
}

TEST(ShardChannelsTest, SingleShardWrapIsPassthrough) {
  const causal::ShardChannels ch(1);
  int calls = 0;
  const net::Message inner = make_inner();
  const net::Message out = ch.wrap(0, inner, [&calls](std::uint32_t) {
    ++calls;
    return std::vector<std::uint8_t>{1};
  });
  EXPECT_EQ(out.kind, net::MsgKind::kUpdate);
  EXPECT_EQ(out.body, inner.body);
  EXPECT_EQ(calls, 0);
}

TEST(ShardChannelsTest, WrapCarriesOtherShardsNonEmptyTokens) {
  const causal::ShardChannels ch(4);
  std::vector<std::uint32_t> asked;
  const causal::ShardChannels::TokenOf token_of = [&asked](std::uint32_t j) {
    asked.push_back(j);
    return j == 2 ? std::vector<std::uint8_t>{}
                  : std::vector<std::uint8_t>{static_cast<std::uint8_t>(j)};
  };
  for (const net::MsgKind kind :
       {net::MsgKind::kUpdate, net::MsgKind::kFetchResp}) {
    asked.clear();
    net::Message inner = make_inner();
    inner.kind = kind;
    const auto env = causal::unwrap_shard_envelope(ch.wrap(1, inner, token_of));
    ASSERT_TRUE(env.has_value());
    EXPECT_EQ(env->shard, 1u);
    EXPECT_EQ(env->inner.kind, kind);
    // Never the sender's own shard 1; shard 2's empty token is left out.
    EXPECT_EQ(asked, (std::vector<std::uint32_t>{0, 2, 3}));
    ASSERT_EQ(env->tokens.size(), 2u);
    EXPECT_EQ(env->tokens[0].shard, 0u);
    EXPECT_EQ(env->tokens[0].token, (std::vector<std::uint8_t>{0}));
    EXPECT_EQ(env->tokens[1].shard, 3u);
    EXPECT_EQ(env->tokens[1].token, (std::vector<std::uint8_t>{3}));
  }
  // Requests are wrapped for demux only.
  asked.clear();
  net::Message req = make_inner();
  req.kind = net::MsgKind::kFetchReq;
  const auto env = causal::unwrap_shard_envelope(ch.wrap(1, req, token_of));
  ASSERT_TRUE(env.has_value());
  EXPECT_TRUE(env->tokens.empty());
  EXPECT_TRUE(asked.empty());
}

TEST(ShardChannelsTest, MalformedEnvelopesAreCountedNotQueued) {
  causal::ShardChannels ch(4);
  EXPECT_FALSE(ch.push(make_inner()));                        // no envelope
  EXPECT_FALSE(ch.push(envelope_from(0, 4, 1, {})));          // shard >= N
  EXPECT_FALSE(ch.push(envelope_from(0, 1, 2, {{99, {}}})));  // token >= N
  EXPECT_FALSE(ch.push(envelope_from(0, 1, 3, {{1, {4}}})));  // own shard
  net::Message garbage = envelope_from(0, 1, 4, {});
  garbage.body.resize(1);
  EXPECT_FALSE(ch.push(garbage));                             // truncated
  EXPECT_EQ(ch.malformed(), 5u);
  EXPECT_EQ(ch.parked(), 0u);
  EXPECT_TRUE(ch.channels().empty());
}

/// Pop every open head of `c` the way ShardedEngine releases; returns the
/// released envelopes' seqs.
std::vector<std::uint64_t> release(causal::ShardChannels& ch,
                                   causal::ShardChannels::Channel c) {
  std::vector<std::uint64_t> out;
  while (auto env = ch.pop_open(c)) out.push_back(env->inner.chan_seq);
  return out;
}

TEST(ShardChannelsTest, TicketsNameEachParkedEnvelope) {
  causal::ShardChannels ch(4);
  const auto t1 = ch.push(envelope_from(0, 0, 1, {{1, {7}}}));
  const auto t2 = ch.push(envelope_from(0, 0, 2, {{2, {8}}, {3, {9}}}));
  const auto other = ch.push(envelope_from(1, 0, 3, {}));
  ASSERT_TRUE(t1 && t2 && other);
  EXPECT_EQ(t1->chan, (causal::ShardChannels::Channel{0, 0}));
  EXPECT_EQ(t2->chan, t1->chan);
  EXPECT_EQ(t2->seq, t1->seq + 1);
  EXPECT_EQ(other->chan, (causal::ShardChannels::Channel{1, 0}));
  // A ticket behind the head still reaches its own dependencies.
  ASSERT_EQ(ch.deps(*t2).size(), 2u);
  EXPECT_EQ(ch.deps(*t2)[0].shard, 2u);
  EXPECT_EQ(ch.deps(*t2)[1].shard, 3u);
  EXPECT_TRUE(ch.deps(*other).empty());
}

TEST(ShardChannelsTest, OnlyAnOpenHeadIsReleasable) {
  causal::ShardChannels ch(4);
  const causal::ShardChannels::Channel c{0, 1};
  EXPECT_FALSE(ch.pop_open(c).has_value());  // empty channel
  const auto t = ch.push(envelope_from(0, 1, 1, {}));
  ASSERT_TRUE(t);
  // No dependency is not the same as open: the runtime decides.
  EXPECT_TRUE(release(ch, c).empty());
  EXPECT_EQ(ch.parked(), 1u);
  ch.open(*t);
  EXPECT_EQ(release(ch, c), (std::vector<std::uint64_t>{1}));
  EXPECT_EQ(ch.parked(), 0u);
  EXPECT_TRUE(ch.channels().empty());
}

TEST(ShardChannelsTest, OpenOutOfOrderReleasesInArrivalOrder) {
  causal::ShardChannels ch(4);
  const causal::ShardChannels::Channel c{2, 3};
  std::vector<causal::ShardChannels::Ticket> t;
  for (std::uint64_t seq = 1; seq <= 4; ++seq) {
    const auto tk = ch.push(envelope_from(2, 3, seq, {{0, {1}}}));
    ASSERT_TRUE(tk);
    t.push_back(*tk);
  }
  // The later envelopes open first; nothing passes the unmet head.
  ch.open(t[3]);
  ch.open(t[1]);
  EXPECT_TRUE(release(ch, c).empty());
  ch.open(t[0]);
  EXPECT_EQ(release(ch, c), (std::vector<std::uint64_t>{1, 2}));
  EXPECT_EQ(ch.parked(), 2u);
  ch.open(t[2]);
  EXPECT_EQ(release(ch, c), (std::vector<std::uint64_t>{3, 4}));
  EXPECT_EQ(ch.parked(), 0u);
  // A channel drained empty starts over; no old ticket can name it.
  const auto again = ch.push(envelope_from(2, 3, 5, {}));
  ASSERT_TRUE(again);
  ch.open(*again);
  EXPECT_EQ(release(ch, c), (std::vector<std::uint64_t>{5}));
}

TEST(ShardChannelsTest, MalformedEnvelopesGetNoTicket) {
  causal::ShardChannels ch(4);
  const auto t1 = ch.push(envelope_from(0, 1, 1, {}));
  EXPECT_FALSE(ch.push(envelope_from(0, 1, 2, {{1, {4}}})));  // own shard
  const auto t3 = ch.push(envelope_from(0, 1, 3, {}));
  ASSERT_TRUE(t1 && t3);
  // The rejected envelope took no place in the channel.
  EXPECT_EQ(t3->seq, t1->seq + 1);
  EXPECT_EQ(ch.parked(), 2u);
  EXPECT_EQ(ch.malformed(), 1u);
  ch.open(*t1);
  ch.open(*t3);
  EXPECT_EQ(release(ch, {0, 1}), (std::vector<std::uint64_t>{1, 3}));
}

TEST(ShardGroupTest, StaleShardTokenIsRejectedNotApplied) {
  // Two Opt-Track sites of 4 shards each, wired by hand so the test picks
  // which envelope reaches site 1 when. Site 0 writes x, then y, on
  // different shards: y's envelope depends on x's shard.
  const auto rmap = causal::ReplicaMap::full(2, 8);
  const causal::ShardMap map(4);
  causal::VarId x = 0, y = 1;
  while (map.shard_of(y) == map.shard_of(x)) ++y;
  std::vector<net::Message> wire;
  metrics::Metrics sink0, sink1;
  auto make_site = [&](causal::SiteId self, metrics::Metrics* sink) {
    causal::Services svc;
    svc.send = [&wire](net::Message m) { wire.push_back(std::move(m)); };
    svc.now = [] { return sim::SimTime{0}; };
    svc.metrics = sink;
    causal::ProtocolOptions opts;
    opts.engine_shards = 4;
    return causal::make_protocol(causal::Algorithm::kOptTrack, self, rmap,
                                 std::move(svc), opts);
  };
  auto site0 = make_site(0, &sink0);
  auto site1 = make_site(1, &sink1);
  auto& group1 = dynamic_cast<causal::ShardGroup&>(*site1);
  site0->write(x, "first");
  site0->write(y, "second");
  ASSERT_EQ(wire.size(), 2u);
  const net::Message x_env = wire[0];
  const net::Message y_env = wire[1];

  // y's envelope with a token for a shard site 1 does not have put in
  // front — what a peer with a different shard count sends. It must not
  // hide y's real dependency on x.
  auto stale = causal::unwrap_shard_envelope(y_env);
  ASSERT_TRUE(stale.has_value());
  stale->tokens.insert(stale->tokens.begin(), causal::ShardToken{99, {}});
  site1->on_message(
      causal::wrap_shard_envelope(stale->shard, stale->tokens, stale->inner));
  ASSERT_TRUE(site1->peek(y).data.empty())
      << "y applied before its cross-shard past x";
  EXPECT_EQ(group1.malformed_envelopes(), 1u);
  EXPECT_EQ(group1.parked_envelope_count(), 0u);

  site1->on_message(y_env);
  EXPECT_EQ(group1.parked_envelope_count(), 1u);
  EXPECT_TRUE(site1->peek(y).data.empty());
  site1->on_message(x_env);
  EXPECT_EQ(group1.parked_envelope_count(), 0u);
  EXPECT_EQ(site1->peek(x).data, "first");
  EXPECT_EQ(site1->peek(y).data, "second");
}

// ---- ShardGroup on the sim runtime ----
//
// The same generated workload runs on a sharded and an unsharded cluster;
// the checker verifies causal memory either way. This is the sim-runtime
// counterpart of the tcp_stress / nemesis engine-shards parameterization.

causal::Program shard_group_program(const causal::ReplicaMap& rmap) {
  workload::WorkloadSpec spec;
  spec.ops_per_site = 120;
  spec.write_rate = 0.45;
  spec.value_bytes = 24;
  spec.seed = 99;
  return workload::generate_program(spec, rmap);
}

class ShardGroupSimTest : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(ShardGroupSimTest, WorkloadIsCausallyConsistent) {
  const auto rmap = causal::ReplicaMap::even(4, 12, 2);
  causal::SimCluster::Options opts;
  opts.latency = std::make_unique<sim::UniformLatency>(5'000, 40'000);
  opts.protocol.engine_shards = GetParam();
  causal::SimCluster cluster(causal::Algorithm::kOptTrack, rmap,
                             std::move(opts));
  cluster.run_program(shard_group_program(rmap));
  EXPECT_EQ(cluster.pending_updates(), 0u);
  ccpr::testing::expect_causal(cluster);
}

INSTANTIATE_TEST_SUITE_P(EngineShards, ShardGroupSimTest,
                         ::testing::Values(1u, 4u),
                         [](const ::testing::TestParamInfo<std::uint32_t>& i) {
                           return "shards" + std::to_string(i.param);
                         });

TEST(ShardGroupSimTest, SingleShardHistoryMatchesUnshardedRun) {
  // engine_shards == 1 must be a strict passthrough: same protocol
  // decisions, same wire traffic, same recorded history as the default
  // (unsharded) factory path, event for event.
  const auto rmap = causal::ReplicaMap::even(3, 9, 2);
  const auto program = shard_group_program(rmap);
  auto run = [&](std::uint32_t shards) {
    causal::SimCluster::Options opts;
    opts.latency = std::make_unique<sim::ConstantLatency>(10'000);
    opts.protocol.engine_shards = shards;
    causal::SimCluster cluster(causal::Algorithm::kOptTrack, rmap,
                               std::move(opts));
    cluster.run_program(program);
    std::vector<std::tuple<causal::SiteId, std::uint64_t, std::uint64_t>> out;
    for (const auto& a : cluster.history().applies()) {
      out.emplace_back(a.site, a.write.writer, a.write.seq);
    }
    return out;
  };
  const auto unsharded = run(0);  // <=1 both take the make_single path
  const auto sharded1 = run(1);
  EXPECT_EQ(unsharded, sharded1);
  ASSERT_FALSE(sharded1.empty());
}

TEST(ShardGroupSimTest, CrossShardSessionOrderHolds) {
  // A write on shard A followed by a causally-dependent write on shard B
  // must reach a remote site in that order even though the shards'
  // protocol instances are independent: the kShardEnvelope coverage token
  // on B's update parks it until A's update has been applied.
  const auto rmap = causal::ReplicaMap::full(3, 8);
  const causal::ShardMap map(4);
  // Pick two vars on different shards.
  causal::VarId a = 0, b = 1;
  while (map.shard_of(b) == map.shard_of(a)) ++b;
  causal::SimCluster::Options opts;
  opts.latency = std::make_unique<sim::ConstantLatency>(10'000);
  opts.protocol.engine_shards = 4;
  causal::SimCluster cluster(causal::Algorithm::kOptTrack, rmap,
                             std::move(opts));
  cluster.write(0, a, "first");
  cluster.write(0, b, "second");
  cluster.run();
  EXPECT_EQ(cluster.site(2).peek(a).data, "first");
  EXPECT_EQ(cluster.site(2).peek(b).data, "second");
  ccpr::testing::expect_causal(cluster);
}

}  // namespace
}  // namespace ccpr
